package cluster

import (
	"encoding/binary"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/mpi"
)

// replayRing is a resumable n-rank ring accumulator: every rank sends a
// deterministic value to its right neighbor each step, checkpoints every
// `every` steps, and resumes from Env.Restored()/RestoredStep() after any
// restart — the app shape the localized-replay rung requires. counter (if
// non-nil) tallies every executed step across all processes and epochs,
// measuring re-executed work; beforeStep hooks run ahead of every step.
func replayRing(steps, every int, counter *atomic.Int64, beforeStep ...func(env *Env, step int)) AppFunc {
	return func(env *Env) (any, error) {
		c := env.World
		n := c.Size()
		me := int(c.Rank())
		start := 0
		var sum uint64
		if b := env.Restored(); b != nil && env.RestoredStep() >= 0 {
			start = env.RestoredStep()
			sum = binary.LittleEndian.Uint64(b)
		}
		sbuf := make([]byte, 8)
		rbuf := make([]byte, 8)
		for i := start; i < steps; i++ {
			for _, f := range beforeStep {
				f(env, i)
			}
			env.Step(i, nil)
			if counter != nil {
				counter.Add(1)
			}
			binary.LittleEndian.PutUint64(sbuf, uint64(me*1000+i))
			req := c.Isend(mpi.Rank((me+1)%n), 0, sbuf)
			c.Recv(mpi.Rank((me-1+n)%n), 0, rbuf)
			mpi.Waitall(req)
			sum += binary.LittleEndian.Uint64(rbuf)
			if every > 0 && (i+1)%every == 0 {
				c.Barrier()
				state := make([]byte, 8)
				binary.LittleEndian.PutUint64(state, sum)
				if err := env.Checkpoint(i+1, state); err != nil {
					return nil, err
				}
			}
		}
		return sum, nil
	}
}

// TestLocalizedReplayUnreplicatedKill is the in-process acceptance
// scenario of the log recovery mode: the single replica of an
// unreplicated rank is killed mid-run; instead of the global rollback the
// default mode would take, only that rank is relaunched — from its own
// newest checkpoint — while the survivors never roll back, and the final
// sums are identical to a fault-free run. The step counter proves the
// locality: exactly one step of work is re-executed.
func TestLocalizedReplayUnreplicatedKill(t *testing.T) {
	const (
		ranks  = 3
		steps  = 12
		every  = 2
		failAt = 7 // one step past the wave-6 checkpoint
	)

	free := Run(Config{
		Ranks: ranks, Protocol: SDR, UnreplicatedRanks: []int{1},
		CheckpointDir: t.TempDir(), RecoveryMode: RecoveryLog,
		Timeout: 30 * time.Second,
	}, replayRing(steps, every, nil))
	if err := free.FirstError(); err != nil {
		t.Fatalf("fault-free run: %v", err)
	}

	var counter atomic.Int64
	rep := Run(Config{
		Ranks: ranks, Protocol: SDR, UnreplicatedRanks: []int{1},
		CheckpointDir: t.TempDir(), RecoveryMode: RecoveryLog,
		Failures: []FailureEvent{{Rank: 1, Rep: 0, AtStep: failAt}},
		Timeout:  30 * time.Second,
	}, replayRing(steps, every, &counter))
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 0 {
		t.Fatalf("restarts = %d, want 0 (survivors must never roll back)", rep.Restarts)
	}
	if rep.Replays != 1 {
		t.Fatalf("replays = %d, want 1", rep.Replays)
	}
	if rep.ReplayWave != failAt-1 {
		t.Fatalf("replay wave = %d, want %d (the rank's newest checkpoint)", rep.ReplayWave, failAt-1)
	}

	// Every finishing process — the relaunched rank 1 included — must
	// compute exactly its fault-free sum.
	finished := 0
	for _, p := range rep.Procs {
		if p.Crashed {
			continue
		}
		finished++
		want := free.ResultOf(p.Rank, p.Rep)
		if p.Result != want {
			t.Errorf("rank %d rep %d: sum %v, fault-free %v", p.Rank, p.Rep, p.Result, want)
		}
	}
	if finished != 5 {
		t.Errorf("finished = %d, want 5 (4 survivors + relaunched rank)", finished)
	}

	// Locality of the recovery: the whole run re-executes exactly the one
	// step the victim completed after its last checkpoint (it died at the
	// step-7 boundary, so step 7 itself was never executed work). A global
	// rollback would have re-executed failAt-wave steps on EVERY process.
	ideal := int64(5 * steps)
	if got := counter.Load(); got != ideal+1 {
		t.Errorf("executed steps = %d, want %d (ideal %d + 1 replayed)", got, ideal+1, ideal)
	}
}

// TestLocalizedReplayFailsClosedOnCorruptLog plants a newest-wave replay
// state that does not decode: the localized rung must not deliver garbage
// — the run has to fall back to a full global rollback and still finish
// with correct results.
func TestLocalizedReplayFailsClosedOnCorruptLog(t *testing.T) {
	const (
		ranks  = 3
		steps  = 12
		every  = 2
		failAt = 7
	)
	dir := t.TempDir()
	// A well-footered mlog+ckpt pair at a bogus future wave: LatestLog
	// will pick it, the store-level integrity check passes, and the
	// codec-level decode must reject it.
	sab, err := ckpt.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := sab.Save(1, 99, []byte{9, 9}, true); err != nil {
		t.Fatal(err)
	}
	if err := sab.SaveLog(1, 99, []byte("not a replay state")); err != nil {
		t.Fatal(err)
	}

	rep := Run(Config{
		Ranks: ranks, Protocol: SDR, UnreplicatedRanks: []int{1},
		CheckpointDir: dir, RecoveryMode: RecoveryLog,
		Failures: []FailureEvent{{Rank: 1, Rep: 0, AtStep: failAt}},
		Timeout:  30 * time.Second,
	}, replayRing(steps, every, nil))
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if rep.Replays != 0 {
		t.Fatalf("replays = %d, want 0 (corrupt replay state must not be used)", rep.Replays)
	}
	if rep.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1 (fail closed into global rollback)", rep.Restarts)
	}

	free := Run(Config{
		Ranks: ranks, Protocol: SDR, UnreplicatedRanks: []int{1},
		CheckpointDir: t.TempDir(), RecoveryMode: RecoveryLog,
		Timeout: 30 * time.Second,
	}, replayRing(steps, every, nil))
	if err := free.FirstError(); err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Procs {
		if p.Crashed {
			continue
		}
		if want := free.ResultOf(p.Rank, p.Rep); p.Result != want {
			t.Errorf("rank %d rep %d: sum %v, fault-free %v", p.Rank, p.Rep, p.Result, want)
		}
	}
}

// TestStaleReplayStateAfterRollback pins the epoch-relativity of replay
// states: a global rollback restarts every process with fresh sequence
// counters, so mlog files captured in the torn-down epoch are poison — a
// relaunch restoring one would discard the new epoch's replayed traffic
// as stale and hang. Seeding the rollback must prune them, and a logging
// rank dying in the new epoch before its first new checkpoint must fail
// CLOSED into a second rollback, finishing with correct results.
func TestStaleReplayStateAfterRollback(t *testing.T) {
	const (
		ranks = 3
		steps = 8
		every = 2
	)
	cfgFor := func(dir string, fails []FailureEvent) Config {
		return Config{
			Ranks: ranks, Protocol: SDR, UnreplicatedRanks: []int{1},
			CheckpointDir: dir, RecoveryMode: RecoveryLog,
			Failures: fails, Timeout: 30 * time.Second,
		}
	}
	free := Run(cfgFor(t.TempDir(), nil), replayRing(steps, every, nil))
	if err := free.FirstError(); err != nil {
		t.Fatalf("fault-free run: %v", err)
	}

	// Epoch 0: both replicas of rank 0 die at step 4 → global rollback.
	// Epoch 1: rank 1's single replica dies at step 5. Which rung absorbs
	// that second death depends on a race the schedule cannot pin: the
	// step-4 kills may land before or after rank 0's wave-4 checkpoint
	// save, so the rollback restarts from wave 4 (mlog-r1-s4 on disk is
	// the PRE-rollback one, poison) or from wave 2 (the new epoch then
	// legitimately commits a fresh wave 4 + mlog before rank 1 dies).
	// Both are correct; the invariant under test is only that a replay
	// never restores a state captured before the rollback it follows.
	rep := Run(cfgFor(t.TempDir(), []FailureEvent{
		{Rank: 0, Rep: 0, AtStep: 4},
		{Rank: 0, Rep: 1, AtStep: 4},
		{Rank: 1, Rep: 0, AtStep: 5},
	}), replayRing(steps, every, nil))
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if rep.Replays > 0 && rep.ReplayWave <= rep.RestartWave {
		t.Fatalf("replayed wave %d after restarting from wave %d: any mlog at or before the restart wave is pre-rollback poison",
			rep.ReplayWave, rep.RestartWave)
	}
	switch {
	case rep.Replays == 0 && rep.Restarts == 2:
		// Rollback came from wave 4: the sole mlog candidate was the
		// stale one, pruning removed it, and the logging death failed
		// closed into a second rollback.
	case rep.Replays == 1 && rep.Restarts == 1:
		// Rollback came from an earlier wave and the new epoch saved a
		// fresh replay state first: the localized rung is then legal.
		if rep.RestartWave >= 4 {
			t.Fatalf("localized replay after restarting from wave %d: no fresh replay state can exist", rep.RestartWave)
		}
	default:
		t.Fatalf("replays = %d restarts = %d, want (0,2) fail-closed or (1,1) fresh-state replay",
			rep.Replays, rep.Restarts)
	}
	for _, p := range rep.Procs {
		if p.Crashed {
			continue
		}
		if want := free.ResultOf(p.Rank, p.Rep); p.Result != want {
			t.Errorf("rank %d rep %d: sum %v, fault-free %v", p.Rank, p.Rep, p.Result, want)
		}
	}
}

// TestRecoveryModeValidation rejects unusable log-mode configurations
// instead of running without the rung armed.
func TestRecoveryModeValidation(t *testing.T) {
	app := replayRing(2, 1, nil)
	if err := Run(Config{Ranks: 2, Protocol: Mirror, RecoveryMode: RecoveryLog,
		CheckpointDir: t.TempDir()}, app).FirstError(); err == nil {
		t.Error("log mode under mirror accepted")
	}
	if err := Run(Config{Ranks: 2, Protocol: SDR, RecoveryMode: RecoveryLog}, app).FirstError(); err == nil {
		t.Error("log mode without CheckpointDir accepted")
	}
	if err := Run(Config{Ranks: 2, Protocol: SDR, RecoveryMode: "bogus"}, app).FirstError(); err == nil {
		t.Error("unknown recovery mode accepted")
	}
}

// TestLoggedRanks pins the one derivation of the sender-logged ranks that
// the launchers arm and cmd/sdrun prints.
func TestLoggedRanks(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want []int
	}{
		{"unreplicated list", Config{Ranks: 4, Replication: 2, UnreplicatedRanks: []int{3, 1}, RecoveryMode: RecoveryLog}, []int{1, 3}},
		{"degree vector", Config{Ranks: 3, Replication: 2, Degrees: []int{2, 1, 2}, RecoveryMode: RecoveryLog}, []int{1}},
		{"no degree-1 rank", Config{Ranks: 3, Replication: 2, RecoveryMode: RecoveryLog}, nil},
		{"rollback mode", Config{Ranks: 4, Replication: 2, UnreplicatedRanks: []int{1}}, nil},
		{"invalid degrees", Config{Ranks: 3, Replication: 2, Degrees: []int{1, 1}, RecoveryMode: RecoveryLog}, nil},
	} {
		tc.cfg.Protocol = SDR
		if got := tc.cfg.LoggedRanks(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: LoggedRanks() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestLocalizedReplayWithLaggingWorld relaunches a logging rank while the
// other world is most of a checkpoint window behind. After rank 3 lost a
// replica nothing in world 0's ring waits for an acknowledgement (rank 1 is
// unreplicated, rank 3's survivor serves both worlds), so world 0 runs up
// to a window ahead of world 1 — here world 1 is slowed on purpose. Rank 1
// consumes world 0's messages, checkpoints, dies and comes back from that
// checkpoint: every message below its restored receive frontier is one it
// will never consume, hence never acknowledge, again. World 1's senders
// post those sends only afterwards; they must not wait for acknowledgements
// from the relaunched process (they used to, forever).
func TestLocalizedReplayWithLaggingWorld(t *testing.T) {
	const (
		ranks = 4
		steps = 60
		every = 10
	)
	lagWorld1 := func(env *Env, step int) {
		if env.Rep == 1 {
			time.Sleep(300 * time.Microsecond)
		}
	}
	cfg := Config{
		Ranks: ranks, Protocol: SDR, UnreplicatedRanks: []int{1},
		RecoveryMode: RecoveryLog, Timeout: 20 * time.Second,
	}
	cfg.CheckpointDir = t.TempDir()
	free := Run(cfg, replayRing(steps, every, nil))
	if err := free.FirstError(); err != nil {
		t.Fatalf("fault-free run: %v", err)
	}

	cfg.CheckpointDir = t.TempDir()
	cfg.Failures = []FailureEvent{
		{Rank: 3, Rep: 1, AtStep: 3},  // substitution: world 0's ring stops waiting for acks
		{Rank: 1, Rep: 0, AtStep: 41}, // one step past the wave-40 checkpoint
	}
	rep := Run(cfg, replayRing(steps, every, nil, lagWorld1))
	if rep.TimedOut {
		t.Fatal("run hung: a sender waits for acknowledgements the relaunched rank will never send")
	}
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 0 || rep.Replays != 1 || rep.ReplayWave != 40 {
		t.Fatalf("restarts = %d, replays = %d from wave %d; want 0, 1, 40", rep.Restarts, rep.Replays, rep.ReplayWave)
	}
	for _, p := range rep.Procs {
		if !p.Crashed && p.Result != free.ResultOf(p.Rank, p.Rep) {
			t.Errorf("rank %d rep %d: sum %v, fault-free %v", p.Rank, p.Rep, p.Result, free.ResultOf(p.Rank, p.Rep))
		}
	}
}
