package cluster

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/transport"
)

// ringApp circulates a token around the ranks `rounds` times; every rank
// returns the final token value.
func ringApp(rounds int) AppFunc {
	return func(env *Env) (any, error) {
		c := env.World
		n := Rank(c)
		token := uint64(0)
		buf := make([]byte, 8)
		for r := 0; r < rounds; r++ {
			if c.Rank() == 0 {
				binary.LittleEndian.PutUint64(buf, token+1)
				c.Send(1%mpi.Rank(n), 0, buf)
				c.Recv(mpi.Rank(n-1), 0, buf)
				token = binary.LittleEndian.Uint64(buf)
			} else {
				c.Recv(c.Rank()-1, 0, buf)
				v := binary.LittleEndian.Uint64(buf) + 1
				binary.LittleEndian.PutUint64(buf, v)
				c.Send((c.Rank()+1)%mpi.Rank(n), 0, buf)
				token = v
			}
		}
		// Agree on the final value so every rank reports the same result.
		binary.LittleEndian.PutUint64(buf, token)
		c.Bcast(0, buf)
		return binary.LittleEndian.Uint64(buf), nil
	}
}

func Rank(c *mpi.Comm) int { return c.Size() }

// checkAll asserts the run succeeded and every live proc returned want.
func checkAll(t *testing.T, rep *Report, want any) {
	t.Helper()
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Procs {
		if p.Crashed {
			continue
		}
		if p.Result != want {
			t.Errorf("proc %d (rank %d rep %d): result %v want %v", p.Proc, p.Rank, p.Rep, p.Result, want)
		}
	}
}

func protocols() []Protocol { return []Protocol{Native, SDR, Mirror, Leader} }

func TestRingAllProtocols(t *testing.T) {
	const n, rounds = 4, 5
	want := uint64(0)
	for r := 0; r < rounds; r++ {
		want += uint64(n)
	}
	for _, proto := range protocols() {
		t.Run(string(proto), func(t *testing.T) {
			rep := Run(Config{Ranks: n, Protocol: proto, Timeout: 30 * time.Second}, ringApp(rounds))
			checkAll(t, rep, want)
		})
	}
}

func TestCollectivesAllProtocols(t *testing.T) {
	app := func(env *Env) (any, error) {
		c := env.World
		sum := c.AllreduceFloat64(float64(c.Rank())+1, mpi.OpSum)
		data := []byte{0}
		if c.Rank() == 2 {
			data[0] = 77
		}
		c.Bcast(2, data)
		all := c.Allgather([]byte{byte(c.Rank())})
		c.Barrier()
		return fmt.Sprintf("%v/%d/%v", sum, data[0], all), nil
	}
	want := "10/77/[0 1 2 3]"
	for _, proto := range protocols() {
		t.Run(string(proto), func(t *testing.T) {
			rep := Run(Config{Ranks: 4, Protocol: proto, Timeout: 30 * time.Second}, app)
			checkAll(t, rep, want)
		})
	}
}

func TestAnySourceAllProtocols(t *testing.T) {
	// Rank 0 sums payloads from anonymous receptions — the scenario of
	// Figure 2. All protocols must deliver the same multiset.
	app := func(env *Env) (any, error) {
		c := env.World
		if c.Rank() == 0 {
			total := 0
			buf := make([]byte, 1)
			for i := 0; i < c.Size()-1; i++ {
				st := c.Recv(mpi.AnySource, 1, buf)
				if int(buf[0]) != int(st.Source)*10 {
					return nil, fmt.Errorf("payload %d from %d", buf[0], st.Source)
				}
				total += int(buf[0])
			}
			return total, nil
		}
		c.Send(0, 1, []byte{byte(c.Rank() * 10)})
		return 60, nil
	}
	for _, proto := range protocols() {
		t.Run(string(proto), func(t *testing.T) {
			rep := Run(Config{Ranks: 4, Protocol: proto, Timeout: 30 * time.Second}, app)
			if err := rep.FirstError(); err != nil {
				t.Fatal(err)
			}
			for _, p := range rep.Procs {
				if p.Rank == 0 && p.Result != 60 {
					t.Errorf("rank0 rep%d: %v", p.Rep, p.Result)
				}
			}
		})
	}
}

func TestCommunicatorOpsUnderReplication(t *testing.T) {
	// Dup and Split are handled transparently (paper §4.1): exercise them
	// under SDR and compare with native.
	app := func(env *Env) (any, error) {
		c := env.World
		dup := c.Dup()
		sub := c.Split(int(c.Rank())%2, 0)
		a := dup.AllreduceFloat64(float64(c.Rank()), mpi.OpSum)
		b := sub.AllreduceFloat64(float64(c.Rank()), mpi.OpSum)
		return fmt.Sprintf("%v/%v", a, b), nil
	}
	for _, proto := range []Protocol{Native, SDR, Mirror} {
		t.Run(string(proto), func(t *testing.T) {
			rep := Run(Config{Ranks: 4, Protocol: proto, Timeout: 30 * time.Second}, app)
			if err := rep.FirstError(); err != nil {
				t.Fatal(err)
			}
			for _, p := range rep.Procs {
				want := "6/2" // evens: 0+2
				if p.Rank%2 == 1 {
					want = "6/4" // odds: 1+3
				}
				if p.Result != want {
					t.Errorf("rank %d rep %d: %v want %v", p.Rank, p.Rep, p.Result, want)
				}
			}
		})
	}
}

func TestParallelVsMirrorMessageComplexity(t *testing.T) {
	// §2.4: parallel = O(q·r), mirror = O(q·r²). With r=2 the mirror run
	// must move about twice the application messages of the parallel run.
	app := ringApp(20)
	sdr := Run(Config{Ranks: 4, Protocol: SDR, Timeout: 30 * time.Second}, app)
	mir := Run(Config{Ranks: 4, Protocol: Mirror, Timeout: 30 * time.Second}, app)
	if err := sdr.FirstError(); err != nil {
		t.Fatal(err)
	}
	if err := mir.FirstError(); err != nil {
		t.Fatal(err)
	}
	qs, qm := sdr.Stats.AppMsgs(), mir.Stats.AppMsgs()
	ratio := float64(qm) / float64(qs)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("mirror/parallel app-message ratio = %.2f (q_sdr=%d q_mirror=%d), want ~2", ratio, qs, qm)
	}
	// The parallel protocol pays acks instead: one per received message
	// per non-sender replica (r-1 = 1).
	if sdr.Stats.AckMsgs() == 0 {
		t.Error("parallel protocol sent no acks")
	}
	if mir.Stats.AckMsgs() != 0 {
		t.Error("mirror protocol should send no acks")
	}
}

func TestRetentionDrains(t *testing.T) {
	// Message-deletion safety: after a quiescent exchange, no sender
	// retains anything (all acks collected).
	app := func(env *Env) (any, error) {
		c := env.World
		app := ringApp(10)
		if _, err := app(env); err != nil {
			return nil, err
		}
		c.Barrier()
		// A finished send may still await its own acks: collect them.
		env.Replicated().Quiesce()
		return env.Replicated().RetainedCount(), nil
	}
	rep := Run(Config{Ranks: 3, Protocol: SDR, Timeout: 30 * time.Second}, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Procs {
		if p.Result != 0 {
			t.Errorf("proc %d retains %v entries after quiescence", p.Proc, p.Result)
		}
	}
}

func TestSendDeterminismAcrossReplicas(t *testing.T) {
	// Replicas of a rank must produce identical send sequences even when
	// their wildcard receptions resolve in different orders (Definition 1
	// + §3.1). The app deliberately echoes based on arrival order.
	app := func(env *Env) (any, error) {
		c := env.World
		if c.Rank() == 0 {
			buf := make([]byte, 1)
			sum := 0
			for i := 0; i < c.Size()-1; i++ {
				c.Recv(mpi.AnySource, 0, buf)
				sum += int(buf[0]) // order-insensitive fold: send-deterministic
			}
			c.Send(1, 1, []byte{byte(sum)})
		} else {
			c.Send(0, 0, []byte{byte(c.Rank())})
			if c.Rank() == 1 {
				c.Recv(0, 1, make([]byte, 1))
			}
		}
		return nil, nil
	}
	rep := Run(Config{Ranks: 4, Protocol: SDR, TraceSends: true, KeepEvents: 1000, Timeout: 30 * time.Second}, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 4; rank++ {
		r0 := rep.Recorders[transport.ProcID(0*4+rank)]
		r1 := rep.Recorders[transport.ProcID(1*4+rank)]
		if r0 == nil || r1 == nil {
			t.Fatalf("missing recorders for rank %d", rank)
		}
		if err := CheckSendDeterminism(r0, r1); err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	}
}
