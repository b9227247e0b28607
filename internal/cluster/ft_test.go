package cluster

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/mpi"
)

// pingPongApp is the Figure 3 pattern: rank 1 sends to rank 0, rank 0
// replies, repeated `steps` times; the running sum is the result.
func pingPongApp(steps, payload int) AppFunc {
	return func(env *Env) (any, error) {
		c := env.World
		buf := make([]byte, payload)
		sum := uint64(0)
		for i := 0; i < steps; i++ {
			env.Step(i, nil)
			if c.Rank() == 1 {
				binary.LittleEndian.PutUint64(buf, uint64(i))
				c.Send(0, 0, buf) // send(p0)
				c.Recv(0, 1, buf) // recv(p0)
				sum += binary.LittleEndian.Uint64(buf)
			} else {
				c.Recv(1, 0, buf) // recv(p1)
				v := binary.LittleEndian.Uint64(buf) * 2
				binary.LittleEndian.PutUint64(buf, v)
				c.Send(1, 1, buf) // send(p1)
				sum += v
			}
		}
		return sum, nil
	}
}

func wantPingPong(steps int) uint64 {
	w := uint64(0)
	for i := 0; i < steps; i++ {
		w += uint64(i) * 2
	}
	return w
}

func TestScenarioFig3FailureMidRun(t *testing.T) {
	// Figure 3: replica p¹₁ (rank 1, world 1) fails mid-pattern; p⁰₁
	// takes over sending on its behalf and every surviving process
	// completes with the correct result.
	const steps = 10
	rep := Run(Config{
		Ranks: 2, Protocol: SDR, Timeout: 30 * time.Second,
		Failures: []FailureEvent{{Rank: 1, Rep: 1, AtStep: 4}},
	}, pingPongApp(steps, 8))
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	want := wantPingPong(steps)
	crashed := 0
	for _, p := range rep.Procs {
		if p.Crashed {
			crashed++
			if p.Rank != 1 || p.Rep != 1 {
				t.Errorf("wrong victim: rank %d rep %d", p.Rank, p.Rep)
			}
			continue
		}
		if p.Result != want {
			t.Errorf("rank %d rep %d: %v want %v", p.Rank, p.Rep, p.Result, want)
		}
	}
	if crashed != 1 {
		t.Errorf("crashed = %d, want 1", crashed)
	}
}

func TestFailureEveryStep(t *testing.T) {
	// The substitution logic must work no matter where in the pattern
	// the crash lands.
	const steps = 6
	want := wantPingPong(steps)
	for at := 1; at < steps; at++ {
		t.Run(fmt.Sprintf("at=%d", at), func(t *testing.T) {
			rep := Run(Config{
				Ranks: 2, Protocol: SDR, Timeout: 30 * time.Second,
				Failures: []FailureEvent{{Rank: 1, Rep: 1, AtStep: at}},
			}, pingPongApp(steps, 8))
			if err := rep.FirstError(); err != nil {
				t.Fatal(err)
			}
			for _, p := range rep.Procs {
				if !p.Crashed && p.Result != want {
					t.Errorf("rank %d rep %d: %v want %v", p.Rank, p.Rep, p.Result, want)
				}
			}
		})
	}
}

func TestFailureOfWorldZeroReplica(t *testing.T) {
	// Kill a world-0 replica instead: world-1 survivors elect rep 1's
	// process... substitution is by lowest alive rep, here rep 1.
	const steps = 8
	rep := Run(Config{
		Ranks: 2, Protocol: SDR, Timeout: 30 * time.Second,
		Failures: []FailureEvent{{Rank: 0, Rep: 0, AtStep: 3}},
	}, pingPongApp(steps, 8))
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	want := wantPingPong(steps)
	for _, p := range rep.Procs {
		if !p.Crashed && p.Result != want {
			t.Errorf("rank %d rep %d: %v want %v", p.Rank, p.Rep, p.Result, want)
		}
	}
}

func TestFailureWithRendezvousMessages(t *testing.T) {
	// Crash while large (rendezvous-path) messages are in flight: the
	// retention buffer must hold full payloads for re-send.
	const steps = 8
	rep := Run(Config{
		Ranks: 2, Protocol: SDR, Timeout: 30 * time.Second, EagerLimit: 16,
		Failures: []FailureEvent{{Rank: 1, Rep: 1, AtStep: 4}},
	}, pingPongApp(steps, 512))
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	want := wantPingPong(steps)
	for _, p := range rep.Procs {
		if !p.Crashed && p.Result != want {
			t.Errorf("rank %d rep %d: %v want %v", p.Rank, p.Rep, p.Result, want)
		}
	}
}

func TestFailureDuringCollectives(t *testing.T) {
	// Collectives run on top of point-to-point, so the failure handling
	// must carry them transparently too.
	app := func(env *Env) (any, error) {
		c := env.World
		total := 0.0
		for i := 0; i < 8; i++ {
			env.Step(i, nil)
			total += c.AllreduceFloat64(float64(int(c.Rank())+i), mpi.OpSum)
			data := []byte{byte(i)}
			c.Bcast(mpi.Rank(i%c.Size()), data)
			total += float64(data[0])
		}
		return total, nil
	}
	rep := Run(Config{
		Ranks: 4, Protocol: SDR, Timeout: 30 * time.Second,
		Failures: []FailureEvent{{Rank: 2, Rep: 0, AtStep: 3}},
	}, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	var want any
	for _, p := range rep.Procs {
		if !p.Crashed {
			want = p.Result
			break
		}
	}
	for _, p := range rep.Procs {
		if !p.Crashed && p.Result != want {
			t.Errorf("rank %d rep %d: %v want %v", p.Rank, p.Rep, p.Result, want)
		}
	}
}

func TestMultipleFailuresDifferentRanks(t *testing.T) {
	// One replica of each of two different ranks fails; the surviving
	// replicas carry the application.
	const steps = 10
	rep := Run(Config{
		Ranks: 3, Protocol: SDR, Timeout: 30 * time.Second,
		Failures: []FailureEvent{
			{Rank: 1, Rep: 1, AtStep: 3},
			{Rank: 2, Rep: 0, AtStep: 6},
		},
	}, ringStepApp(steps))
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	var want any
	for _, p := range rep.Procs {
		if !p.Crashed {
			want = p.Result
			break
		}
	}
	crashed := 0
	for _, p := range rep.Procs {
		if p.Crashed {
			crashed++
			continue
		}
		if p.Result != want {
			t.Errorf("rank %d rep %d: %v want %v", p.Rank, p.Rep, p.Result, want)
		}
	}
	if crashed != 2 {
		t.Errorf("crashed = %d want 2", crashed)
	}
}

// ringStepApp circulates a token with a Step boundary per round.
func ringStepApp(steps int) AppFunc {
	return func(env *Env) (any, error) {
		c := env.World
		n := mpi.Rank(c.Size())
		buf := make([]byte, 8)
		token := uint64(0)
		for i := 0; i < steps; i++ {
			env.Step(i, nil)
			if c.Rank() == 0 {
				binary.LittleEndian.PutUint64(buf, token+1)
				c.Send(1, 0, buf)
				c.Recv(n-1, 0, buf)
				token = binary.LittleEndian.Uint64(buf)
			} else {
				c.Recv(c.Rank()-1, 0, buf)
				v := binary.LittleEndian.Uint64(buf) + 1
				binary.LittleEndian.PutUint64(buf, v)
				c.Send((c.Rank()+1)%n, 0, buf)
				token = v
			}
		}
		binary.LittleEndian.PutUint64(buf, token)
		c.Bcast(0, buf)
		return binary.LittleEndian.Uint64(buf), nil
	}
}

func TestAllReplicasOfARankFailing(t *testing.T) {
	// When both replicas of a rank die, the paper says the system must
	// fall back to checkpoint/restart. Without a CheckpointDir there is
	// nothing to roll back to: the run must fail cleanly — a typed
	// exhaustion error, not a panic and not a hang.
	rep := Run(Config{
		Ranks: 2, Protocol: SDR, Timeout: 20 * time.Second,
		Failures: []FailureEvent{
			{Rank: 1, Rep: 0, AtStep: 2},
			{Rank: 1, Rep: 1, AtStep: 2},
		},
	}, pingPongApp(8, 8))
	if rep.TimedOut {
		t.Fatal("run hung instead of failing")
	}
	if rep.ExhaustErr == nil {
		t.Fatal("expected a replication-exhausted error when no checkpoint store exists")
	}
	if rep.FirstError() == nil {
		t.Error("FirstError must surface the exhaustion")
	}
	for _, p := range rep.Procs {
		if p.Err != nil {
			t.Errorf("rank loss must not masquerade as an application error: %v", p.Err)
		}
	}
}

func TestScenarioFig4Recovery(t *testing.T) {
	// Figure 4: p¹₁ fails, its substitute p⁰₁ later forks a replacement
	// from its own state, broadcasts the notification, peers replay
	// unacknowledged messages, and the recovered replica finishes the
	// run like everyone else.
	const steps = 12
	type state struct {
		Step int
		Sum  uint64
	}
	encode := func(s state) []byte {
		b := make([]byte, 16)
		binary.LittleEndian.PutUint64(b, uint64(s.Step))
		binary.LittleEndian.PutUint64(b[8:], s.Sum)
		return b
	}
	app := func(env *Env) (any, error) {
		c := env.World
		var st state
		if b := env.Restored(); b != nil {
			st.Step = int(binary.LittleEndian.Uint64(b))
			st.Sum = binary.LittleEndian.Uint64(b[8:])
		}
		buf := make([]byte, 8)
		for i := st.Step; i < steps; i++ {
			st.Step = i
			env.Step(i, func() []byte { return encode(st) })
			if c.Rank() == 1 {
				binary.LittleEndian.PutUint64(buf, uint64(i))
				c.Send(0, 0, buf)
				c.Recv(0, 1, buf)
				st.Sum += binary.LittleEndian.Uint64(buf)
			} else {
				c.Recv(1, 0, buf)
				v := binary.LittleEndian.Uint64(buf) * 2
				binary.LittleEndian.PutUint64(buf, v)
				c.Send(1, 1, buf)
				st.Sum += v
			}
		}
		return st.Sum, nil
	}
	rep := Run(Config{
		Ranks: 2, Protocol: SDR, Timeout: 30 * time.Second,
		Failures:   []FailureEvent{{Rank: 1, Rep: 1, AtStep: 4}},
		Recoveries: []RecoveryEvent{{Rank: 1, Rep: 1, AtStep: 8}},
	}, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	want := wantPingPong(steps)
	finished := 0
	recoveredSaw := false
	for _, p := range rep.Procs {
		if p.Crashed {
			continue
		}
		finished++
		if p.Result != want {
			t.Errorf("rank %d rep %d: %v want %v", p.Rank, p.Rep, p.Result, want)
		}
		if p.Rank == 1 && p.Rep == 1 {
			recoveredSaw = true
		}
	}
	if finished != 4 {
		t.Errorf("finished procs = %d, want 4 (including the recovered replica)", finished)
	}
	if !recoveredSaw {
		t.Error("recovered replica did not report a result")
	}
}

func TestAckOnWaitDeadlock(t *testing.T) {
	// §3.3: if acks were only sent when the receive request completes at
	// the *application* level (MPI_Wait), the Irecv–Send–Wait exchange
	// deadlocks: both ranks block in MPI_Send waiting for an ack that
	// the peer can only send from a Wait it never reaches. Acknowledging
	// on irecvComplete (the default) avoids this. The exchange sends twice:
	// an eager send waits for its predecessor's acks, so it is the second
	// Send that can only return once the first was acknowledged.
	crossApp := func(env *Env) (any, error) {
		c := env.World
		other := 1 - c.Rank()
		in := [2][]byte{make([]byte, 8), make([]byte, 8)}
		rr := []*mpi.Request{c.Irecv(other, 0, in[0]), c.Irecv(other, 0, in[1])}
		c.Send(other, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		c.Send(other, 0, []byte{8, 7, 6, 5, 4, 3, 2, 1})
		mpi.Waitall(rr...)
		return "ok", nil
	}

	good := Run(Config{Ranks: 2, Protocol: SDR, Timeout: 20 * time.Second}, crossApp)
	if err := good.FirstError(); err != nil {
		t.Fatalf("default (ack on irecvComplete) must not deadlock: %v", err)
	}

	bad := Run(Config{Ranks: 2, Protocol: SDR, AckOnWait: true, Timeout: 3 * time.Second}, crossApp)
	if !bad.TimedOut {
		t.Fatal("ack-on-wait should deadlock the Irecv-Send-Wait pattern")
	}
}

func TestSDCDetection(t *testing.T) {
	// redMPI-style hash comparison: corrupt one replica's payload and
	// the receivers' cross-world hash comparison must flag it.
	app := func(env *Env) (any, error) {
		c := env.World
		buf := make([]byte, 8)
		for i := 0; i < 5; i++ {
			if c.Rank() == 1 {
				binary.LittleEndian.PutUint64(buf, uint64(i))
				c.Send(0, 0, buf)
			} else {
				c.Recv(1, 0, buf)
			}
		}
		c.Barrier()
		return nil, nil
	}
	clean := Run(Config{Ranks: 2, Protocol: SDR, SDC: true, Timeout: 20 * time.Second}, app)
	if err := clean.FirstError(); err != nil {
		t.Fatal(err)
	}
	if clean.SDCDetected != 0 {
		t.Errorf("false positives: %d", clean.SDCDetected)
	}

	dirty := Run(Config{
		Ranks: 2, Protocol: SDR, SDC: true, Timeout: 20 * time.Second,
		Corrupt: true, CorruptRank: 1, CorruptRep: 1, CorruptSeq: 2,
	}, app)
	if err := dirty.FirstError(); err != nil {
		t.Fatal(err)
	}
	if dirty.SDCDetected == 0 {
		t.Error("injected corruption went undetected")
	}
}

func TestLeaderFollowerUnexpectedGrowth(t *testing.T) {
	// §3.1: delaying the followers' receive posting increases unexpected
	// messages. Observe that the leader protocol still delivers correct
	// results with many wildcard receptions outstanding.
	app := func(env *Env) (any, error) {
		c := env.World
		const k = 30
		if c.Rank() == 0 {
			total := 0
			buf := make([]byte, 1)
			for i := 0; i < k*(c.Size()-1); i++ {
				c.Recv(mpi.AnySource, 0, buf)
				total += int(buf[0])
			}
			return total, nil
		}
		for i := 0; i < k; i++ {
			c.Send(0, 0, []byte{byte(c.Rank())})
		}
		return (1 + 2 + 3) * k, nil
	}
	rep := Run(Config{Ranks: 4, Protocol: Leader, Timeout: 30 * time.Second}, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	want := 6 * 30
	for _, p := range rep.Procs {
		if p.Rank == 0 && p.Result != want {
			t.Errorf("rank 0 rep %d: %v want %v", p.Rep, p.Result, want)
		}
	}
}
