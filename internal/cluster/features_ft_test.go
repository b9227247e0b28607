package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/mpi"
)

// Crash coverage for the MPI facilities above point-to-point: each must
// survive a replica failure mid-run with native-identical results on every
// survivor.

// runWithCrash executes app natively (reference) and under SDR with the
// given failure, comparing every survivor's result to the reference of
// its rank.
func runWithCrash(t *testing.T, ranks int, fail FailureEvent, app AppFunc) {
	t.Helper()
	ref := Run(Config{Ranks: ranks, Protocol: Native, Timeout: 30 * time.Second}, app)
	if err := ref.FirstError(); err != nil {
		t.Fatalf("native reference: %v", err)
	}
	rep := Run(Config{
		Ranks: ranks, Protocol: SDR, Timeout: 30 * time.Second,
		Failures: []FailureEvent{fail},
	}, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	crashed := 0
	for _, p := range rep.Procs {
		if p.Crashed {
			crashed++
			continue
		}
		if want := ref.ResultOf(p.Rank, 0); p.Result != want {
			t.Errorf("rank %d rep %d: %v, want %v", p.Rank, p.Rep, p.Result, want)
		}
	}
	if crashed != 1 {
		t.Errorf("crashed = %d, want 1", crashed)
	}
}

func TestPersistentRingSurvivesEachCrashPosition(t *testing.T) {
	// Persistent-request ring; sweep the crash position across steps.
	mk := func() AppFunc {
		return func(env *Env) (any, error) {
			c := env.World
			n := c.Size()
			right := (c.Rank() + 1) % mpi.Rank(n)
			left := (c.Rank() - 1 + mpi.Rank(n)) % mpi.Rank(n)
			in := make([]byte, 1)
			out := make([]byte, 1)
			send := c.SendInit(right, 1, out)
			recv := c.RecvInit(left, 1, in)
			total := 0
			for i := 0; i < 6; i++ {
				env.Step(i, nil)
				out[0] = byte(int(c.Rank()) + i)
				mpi.Startall(recv, send)
				mpi.WaitallPersistent(recv, send)
				total += int(in[0])
			}
			return total, nil
		}
	}
	for at := 1; at < 6; at += 2 {
		t.Run(fmt.Sprintf("at=%d", at), func(t *testing.T) {
			runWithCrash(t, 3, FailureEvent{Rank: 1, Rep: 1, AtStep: at}, mk())
		})
	}
}
