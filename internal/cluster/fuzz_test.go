package cluster

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/mpi"
)

// randomApp generates a random — but send-deterministic — SPMD
// communication pattern from a seed: every rank derives the same schedule
// of sends, receives (some wildcard), and collectives, folding payloads
// order-insensitively. All protocols must produce identical results.
func randomApp(seed int64, rounds int) AppFunc {
	return func(env *Env) (any, error) {
		c := env.World
		n := c.Size()
		me := int(c.Rank())
		rng := rand.New(rand.NewSource(seed)) // same stream on every rank
		acc := uint64(1)
		buf := make([]byte, 8)
		for round := 0; round < rounds; round++ {
			switch rng.Intn(5) {
			case 0: // ring shift with per-round direction
				dir := 1 + rng.Intn(n-1)
				to := mpi.Rank((me + dir) % n)
				from := mpi.Rank((me - dir + n) % n)
				binary.LittleEndian.PutUint64(buf, acc+uint64(me))
				out := append([]byte(nil), buf...)
				st := c.Sendrecv(to, round, out, from, round, buf)
				if st.Source != from {
					return nil, fmt.Errorf("sendrecv source %d want %d", st.Source, from)
				}
				acc += binary.LittleEndian.Uint64(buf)
			case 1: // gather to a random root via ANY_SOURCE
				root := rng.Intn(n)
				if me == root {
					sum := uint64(0)
					for i := 0; i < n-1; i++ {
						c.Recv(mpi.AnySource, round, buf)
						sum += binary.LittleEndian.Uint64(buf)
					}
					acc += sum
				} else {
					binary.LittleEndian.PutUint64(buf, uint64(me)*acc%997)
					c.Send(mpi.Rank(root), round, buf)
				}
				// Everyone agrees on the root's accumulator.
				binary.LittleEndian.PutUint64(buf, acc)
				c.Bcast(mpi.Rank(root), buf)
				acc = binary.LittleEndian.Uint64(buf)
			case 2: // allreduce
				acc = uint64(c.AllreduceFloat64(float64(acc%1000), mpi.OpSum))
			case 3: // alltoall of one byte each
				data := make([]byte, n)
				for i := range data {
					data[i] = byte((me + i) % 251)
				}
				out := c.Alltoall(data, 1)
				for _, b := range out {
					acc += uint64(b)
				}
			case 4: // barrier + local mix
				c.Barrier()
				acc = acc*6364136223846793005 + 1442695040888963407
			}
		}
		// Fold per-rank accumulators into one global value (XOR is
		// order-insensitive and exact), so every rank and replica must
		// report the same result.
		return allreduceInt64(c, int64(acc), mpi.OpBxor), nil
	}
}

func TestFuzzProtocolEquivalence(t *testing.T) {
	// Random schedules across all protocols: results must be identical
	// to native, for several seeds and rank counts.
	for seed := int64(1); seed <= 6; seed++ {
		for _, n := range []int{2, 3, 5} {
			app := randomApp(seed*1000+int64(n), 12)
			ref := Run(Config{Ranks: n, Protocol: Native, Timeout: 30 * time.Second}, app)
			if err := ref.FirstError(); err != nil {
				t.Fatalf("seed %d n %d native: %v", seed, n, err)
			}
			want := ref.Procs[0].Result
			for _, p := range ref.Procs {
				if p.Result != want {
					t.Fatalf("native ranks disagree at seed %d", seed)
				}
			}
			for _, proto := range []Protocol{SDR, Mirror, Leader} {
				rep := Run(Config{Ranks: n, Protocol: proto, Timeout: 30 * time.Second}, app)
				if err := rep.FirstError(); err != nil {
					t.Fatalf("seed %d n %d %s: %v", seed, n, proto, err)
				}
				for _, p := range rep.Procs {
					if p.Result != want {
						t.Errorf("seed %d n %d %s rank %d rep %d: %v want %v",
							seed, n, proto, p.Rank, p.Rep, p.Result, want)
					}
				}
			}
		}
	}
}

func TestFuzzWithFailures(t *testing.T) {
	// Random schedules with a crash injected at a random step: survivors
	// must match the failure-free result. Requires step boundaries, so
	// wrap the schedule in Step calls.
	for seed := int64(1); seed <= 4; seed++ {
		n := 3
		rounds := 10
		failStep := 1 + int(seed)%(rounds-1)
		// Failure-free reference.
		app := stepWrapped(seed*77, rounds)
		ref := Run(Config{Ranks: n, Protocol: SDR, Timeout: 30 * time.Second}, app)
		if err := ref.FirstError(); err != nil {
			t.Fatalf("seed %d ref: %v", seed, err)
		}
		want := ref.Procs[0].Result
		rep := Run(Config{
			Ranks: n, Protocol: SDR, Timeout: 30 * time.Second,
			Failures: []FailureEvent{{Rank: int(seed) % n, Rep: 1, AtStep: failStep}},
		}, app)
		if err := rep.FirstError(); err != nil {
			t.Fatalf("seed %d faulty: %v", seed, err)
		}
		for _, p := range rep.Procs {
			if p.Crashed {
				continue
			}
			if p.Result != want {
				t.Errorf("seed %d: rank %d rep %d diverged after crash: %v want %v",
					seed, p.Rank, p.Rep, p.Result, want)
			}
		}
	}
}

// stepWrapped is randomApp with a Step boundary before every round.
func stepWrapped(seed int64, rounds int) AppFunc {
	return func(env *Env) (any, error) {
		c := env.World
		n := c.Size()
		me := int(c.Rank())
		rng := rand.New(rand.NewSource(seed))
		acc := uint64(1)
		buf := make([]byte, 8)
		for round := 0; round < rounds; round++ {
			env.Step(round, nil)
			switch rng.Intn(4) {
			case 0:
				dir := 1 + rng.Intn(n-1)
				to := mpi.Rank((me + dir) % n)
				from := mpi.Rank((me - dir + n) % n)
				binary.LittleEndian.PutUint64(buf, acc+uint64(me))
				out := append([]byte(nil), buf...)
				c.Sendrecv(to, round, out, from, round, buf)
				acc += binary.LittleEndian.Uint64(buf)
			case 1:
				root := rng.Intn(n)
				if me == root {
					for i := 0; i < n-1; i++ {
						c.Recv(mpi.AnySource, round, buf)
						acc += binary.LittleEndian.Uint64(buf)
					}
				} else {
					binary.LittleEndian.PutUint64(buf, uint64(me)*acc%997)
					c.Send(mpi.Rank(root), round, buf)
				}
				binary.LittleEndian.PutUint64(buf, acc)
				c.Bcast(mpi.Rank(root), buf)
				acc = binary.LittleEndian.Uint64(buf)
			case 2:
				acc = uint64(c.AllreduceFloat64(float64(acc%1000), mpi.OpSum))
			case 3:
				c.Barrier()
				acc = acc*2862933555777941757 + 3037000493
			}
		}
		return allreduceInt64(c, int64(acc), mpi.OpBxor), nil
	}
}

func TestMirrorSurvivesCrash(t *testing.T) {
	// MR-MPI's mirror protocol tolerates crashes without acks: every
	// replica of the sender transmits to every replica of the receiver,
	// so one sender replica's death loses nothing.
	rep := Run(Config{
		Ranks: 2, Protocol: Mirror, Timeout: 30 * time.Second,
		Failures: []FailureEvent{{Rank: 1, Rep: 1, AtStep: 3}},
	}, pingPongApp(8, 8))
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	want := wantPingPong(8)
	for _, p := range rep.Procs {
		if !p.Crashed && p.Result != want {
			t.Errorf("rank %d rep %d: %v want %v", p.Rank, p.Rep, p.Result, want)
		}
	}
}

// allreduceInt64 is Allreduce on a single int64.
func allreduceInt64(c *mpi.Comm, x int64, op mpi.Op) int64 {
	return mpi.BytesInt64(c.Allreduce(mpi.Int64Bytes([]int64{x}), mpi.Int64T, op))[0]
}
