package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpi"
)

// restoreCheckRing is replayRing with a wave's step in its state, so no two
// waves' images are equal, and a check of Env.Restored's lifetime: a
// restored process keeps a copy of the bytes it resumed from and, once it
// has checkpointed two more waves (their images come from the same store
// buffers as the restore), compares Env.Restored() with the copy at every
// further wave and before it returns. checked counts the processes that
// made the comparison.
func restoreCheckRing(steps, every int, checked *atomic.Int64) AppFunc {
	return func(env *Env) (any, error) {
		c := env.World
		n := c.Size()
		me := int(c.Rank())
		start := 0
		var sum uint64
		var resumed []byte
		if b := env.Restored(); b != nil && env.RestoredStep() >= 0 {
			start = env.RestoredStep()
			sum = binary.LittleEndian.Uint64(b)
			resumed = bytes.Clone(b)
		}
		// A mismatch is reported when the application returns: returning
		// mid-run would leave its ring neighbours waiting for the watchdog.
		waves := 0
		var mismatch error
		check := func() {
			if resumed != nil && waves >= 2 && mismatch == nil && !bytes.Equal(env.Restored(), resumed) {
				mismatch = fmt.Errorf("rank %d rep %d: Env.Restored() reads % x after %d waves, resumed from % x",
					env.Rank, env.Rep, env.Restored(), waves, resumed)
			}
		}
		sbuf := make([]byte, 8)
		rbuf := make([]byte, 8)
		for i := start; i < steps; i++ {
			env.Step(i, nil)
			binary.LittleEndian.PutUint64(sbuf, uint64(me*1000+i))
			req := c.Isend(mpi.Rank((me+1)%n), 0, sbuf)
			c.Recv(mpi.Rank((me-1+n)%n), 0, rbuf)
			mpi.Waitall(req)
			sum += binary.LittleEndian.Uint64(rbuf)
			if (i+1)%every == 0 {
				c.Barrier()
				state := make([]byte, 16)
				binary.LittleEndian.PutUint64(state, sum)
				binary.LittleEndian.PutUint64(state[8:], uint64(i+1))
				if err := env.Checkpoint(i+1, state); err != nil {
					return nil, err
				}
				waves++
				check()
			}
		}
		check()
		if resumed != nil && waves >= 2 {
			checked.Add(1)
		}
		return sum, mismatch
	}
}

// TestRollbackRestoredOutlivesLaterWaves: the bytes a rolled-back epoch's
// processes resume from are the launcher's preloaded image buffers, which
// go back to the store only at the next rollback. Every restored replica
// checkpoints three more waves and still reads what it resumed from.
func TestRollbackRestoredOutlivesLaterWaves(t *testing.T) {
	const steps, every, killAt = 16, 3, 7
	var checked atomic.Int64
	rep := Run(Config{
		Ranks: 2, Protocol: SDR, Timeout: 30 * time.Second,
		CheckpointDir: t.TempDir(),
		Failures:      []FailureEvent{{Rank: 1, Rep: 0, AtStep: killAt}, {Rank: 1, Rep: 1, AtStep: killAt}},
	}, restoreCheckRing(steps, every, &checked))
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 1 || rep.RestartWave != killAt-1 {
		t.Fatalf("restarts %d from wave %d, want 1 from wave %d", rep.Restarts, rep.RestartWave, killAt-1)
	}
	if got := checked.Load(); got != 4 {
		t.Fatalf("%d restored processes compared their restore, want 4", got)
	}
}

// TestReplayRestoredOutlivesLaterWaves: a localized relaunch resumes from
// its own checkpoint, read into one of the store's image buffers that goes
// back only once the incarnation has exited. The relaunched rank
// checkpoints four more waves and still reads what it resumed from.
func TestReplayRestoredOutlivesLaterWaves(t *testing.T) {
	const steps, every, killAt = 14, 2, 7
	var checked atomic.Int64
	rep := Run(Config{
		Ranks: 3, Protocol: SDR, UnreplicatedRanks: []int{1},
		CheckpointDir: t.TempDir(), RecoveryMode: RecoveryLog,
		Failures: []FailureEvent{{Rank: 1, Rep: 0, AtStep: killAt}},
		Timeout:  30 * time.Second,
	}, restoreCheckRing(steps, every, &checked))
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 0 || rep.Replays != 1 || rep.ReplayWave != killAt-1 {
		t.Fatalf("restarts %d, replays %d from wave %d; want 0, 1 from wave %d",
			rep.Restarts, rep.Replays, rep.ReplayWave, killAt-1)
	}
	if got := checked.Load(); got != 1 {
		t.Fatalf("%d restored processes compared their restore, want 1", got)
	}
}
