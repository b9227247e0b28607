package cluster

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/transport"
)

// rollbackApp is a ping-pong accumulator that resumes from the launcher-
// seeded checkpoint (Env.Restored / Env.RestoredStep) instead of scanning
// the store itself — the restart path the rollback subsystem provides.
func rollbackApp(steps, every int, beforeStep ...func(env *Env, step int)) AppFunc {
	return func(env *Env) (any, error) {
		c := env.World
		start := 0
		var sum uint64
		if b := env.Restored(); b != nil && env.RestoredStep() >= 0 {
			start = env.RestoredStep()
			sum = binary.LittleEndian.Uint64(b)
		}
		buf := make([]byte, 8)
		for i := start; i < steps; i++ {
			for _, f := range beforeStep {
				f(env, i)
			}
			env.Step(i, nil)
			if c.Rank() == 1 {
				binary.LittleEndian.PutUint64(buf, uint64(i))
				c.Send(0, 0, buf)
				c.Recv(0, 1, buf)
				sum += binary.LittleEndian.Uint64(buf)
			} else {
				c.Recv(1, 0, buf)
				v := binary.LittleEndian.Uint64(buf) * 2
				binary.LittleEndian.PutUint64(buf, v)
				c.Send(1, 1, buf)
				sum += v
			}
			if (i+1)%every == 0 {
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

func TestRollbackSeedsRestoredState(t *testing.T) {
	// Acceptance shape of the tentpole: kill ALL replicas of a rank
	// mid-run; cluster.Run must restart from the latest committed wave
	// with Env.Restored seeded for every rank, finish with no error, and
	// produce per-rank results byte-identical to a fault-free run.
	const steps, every = 12, 3
	faultFree := Run(Config{
		Ranks: 2, Protocol: SDR, Timeout: 20 * time.Second,
		CheckpointDir: t.TempDir(),
	}, rollbackApp(steps, every))
	if err := faultFree.FirstError(); err != nil {
		t.Fatal(err)
	}

	rep := Run(Config{
		Ranks: 2, Protocol: SDR, Timeout: 20 * time.Second,
		CheckpointDir: t.TempDir(),
		Failures: []FailureEvent{
			{Rank: 1, Rep: 0, AtStep: 7},
			{Rank: 1, Rep: 1, AtStep: 7},
		},
	}, rollbackApp(steps, every))
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", rep.Restarts)
	}
	// The wave-6 commit is usually in by the time rank 1 reaches step 7,
	// but a lagging writer killed by the exhaustion teardown can leave
	// wave 3 as the newest committed line — both are correct restarts.
	if rep.RestartWave != 6 && rep.RestartWave != 3 {
		t.Errorf("RestartWave = %d, want a committed wave (3 or 6)", rep.RestartWave)
	}
	for _, p := range rep.Procs {
		if p.Crashed {
			t.Errorf("rank %d rep %d: unexpected crash in the final epoch", p.Rank, p.Rep)
			continue
		}
		want := faultFree.ResultOf(p.Rank, p.Rep)
		if p.Result != want {
			t.Errorf("rank %d rep %d: %v, fault-free run computed %v", p.Rank, p.Rep, p.Result, want)
		}
	}
}

func TestMirrorExhaustionRollsBack(t *testing.T) {
	// The escalation must fire for every protocol, mirror included: the
	// mirror baseline has no substitution machinery, so rank loss would
	// otherwise hang until the watchdog instead of climbing the ladder.
	const steps, every, failAt = 10, 2, 6
	// Mirror couples a rank's replicas through nothing: rank 0's non-writer
	// replica alone can serve rank 1 all the way to the kill step, before
	// rank 0's writer has saved a single wave. Hold the victims there until
	// a wave is committed, or there is nothing to roll back to.
	awaitWave := func(env *Env, step int) {
		for step == failAt && env.Rank == 1 && env.Epoch() == 0 {
			if wave, err := env.LatestCheckpoint(); err != nil || wave >= 0 {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	rep := Run(Config{
		Ranks: 2, Protocol: Mirror, Timeout: 20 * time.Second,
		CheckpointDir: t.TempDir(),
		Failures: []FailureEvent{
			{Rank: 1, Rep: 0, AtStep: failAt},
			{Rank: 1, Rep: 1, AtStep: failAt},
		},
	}, rollbackApp(steps, every, awaitWave))
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", rep.Restarts)
	}
	want := wantPingPong(steps)
	for _, p := range rep.Procs {
		if p.Result != want {
			t.Errorf("rank %d rep %d: %v want %v", p.Rank, p.Rep, p.Result, want)
		}
	}
}

func TestRollbackWithoutCommittedWaveFailsCleanly(t *testing.T) {
	// Exhaustion before the first committed wave: nothing to roll back
	// to. The run must report a typed error, not loop or hang.
	rep := Run(Config{
		Ranks: 2, Protocol: SDR, Timeout: 20 * time.Second,
		CheckpointDir: t.TempDir(),
		Failures: []FailureEvent{
			{Rank: 1, Rep: 0, AtStep: 1},
			{Rank: 1, Rep: 1, AtStep: 1},
		},
	}, rollbackApp(12, 100 /* never checkpoints */))
	if rep.TimedOut {
		t.Fatal("run hung")
	}
	if rep.ExhaustErr == nil {
		t.Fatal("expected exhaustion error with no committed wave")
	}
	if rep.Restarts != 0 {
		t.Errorf("Restarts = %d, want 0", rep.Restarts)
	}
}

func TestRollbackSurvivesRepeatedExhaustion(t *testing.T) {
	// Two separate rank-loss events, separated by a successful rollback:
	// the ladder must climb twice, and already-realized crash events must
	// not re-fire in later epochs.
	const steps, every = 12, 2
	rep := Run(Config{
		Ranks: 2, Protocol: SDR, Timeout: 30 * time.Second,
		CheckpointDir: t.TempDir(),
		Failures: []FailureEvent{
			{Rank: 1, Rep: 0, AtStep: 5},
			{Rank: 1, Rep: 1, AtStep: 5},
			{Rank: 0, Rep: 0, AtStep: 9},
			{Rank: 0, Rep: 1, AtStep: 9},
		},
	}, rollbackApp(steps, every))
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 2 {
		t.Fatalf("Restarts = %d, want 2", rep.Restarts)
	}
	want := wantPingPong(steps)
	for _, p := range rep.Procs {
		if p.Result != want {
			t.Errorf("rank %d rep %d: %v want %v", p.Rank, p.Rep, p.Result, want)
		}
	}
}

// stepBoundaryCkpt wires an iteration hook that checkpoints a tiny marker
// every iteration and exposes the step boundary to the crash schedule. The
// NAS proxies cannot resume mid-state, so a rollback re-executes them from
// scratch — which is exactly what a wave-0 restart line models; the test's
// point is that teardown, respawn and one-shot schedules reproduce the
// fault-free answer.
func stepBoundaryCkpt(env *Env) func(it int) {
	return func(it int) {
		state := []byte{byte(it)}
		if err := env.Checkpoint(it, state); err != nil {
			panic(err)
		}
		env.Step(it, nil)
	}
}

func TestLUExhaustionRollsBackToFaultFreeResult(t *testing.T) {
	app := func(env *Env) (any, error) {
		p := apps.LUParams{NX: 6, NZ: 3, Iters: 6, Work: 1}
		p.OnIter = stepBoundaryCkpt(env)
		return apps.LU(env.World, p), nil
	}
	want := checksumOf(t, 4, func(env *Env) (any, error) {
		return apps.LU(env.World, apps.LUParams{NX: 6, NZ: 3, Iters: 6, Work: 1}), nil
	})
	rep := Run(Config{
		Ranks: 4, Protocol: SDR, Timeout: 30 * time.Second,
		CheckpointDir: t.TempDir(),
		Failures: []FailureEvent{
			{Rank: 2, Rep: 0, AtStep: 3},
			{Rank: 2, Rep: 1, AtStep: 3},
		},
	}, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", rep.Restarts)
	}
	for _, p := range rep.Procs {
		if got := p.Result.(apps.Result).Checksum; got != want {
			t.Errorf("rank %d rep %d: checksum %v, want %v", p.Rank, p.Rep, got, want)
		}
	}
}

func TestISExhaustionRollsBackToFaultFreeResult(t *testing.T) {
	app := func(env *Env) (any, error) {
		p := apps.ISParams{KeysPerRank: 100, MaxKey: 1 << 9, Iters: 5, Work: 1}
		p.OnIter = stepBoundaryCkpt(env)
		return apps.IS(env.World, p), nil
	}
	want := checksumOf(t, 4, func(env *Env) (any, error) {
		return apps.IS(env.World, apps.ISParams{KeysPerRank: 100, MaxKey: 1 << 9, Iters: 5, Work: 1}), nil
	})
	rep := Run(Config{
		Ranks: 4, Protocol: SDR, Timeout: 30 * time.Second,
		CheckpointDir: t.TempDir(),
		Failures: []FailureEvent{
			{Rank: 1, Rep: 0, AtStep: 2},
			{Rank: 1, Rep: 1, AtStep: 2},
		},
	}, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", rep.Restarts)
	}
	for _, p := range rep.Procs {
		if got := p.Result.(apps.Result).Checksum; got != want {
			t.Errorf("rank %d rep %d: checksum %v, want %v", p.Rank, p.Rep, got, want)
		}
	}
}

func TestMasterWorkerExhaustionRollsBackToFaultFreeResult(t *testing.T) {
	// Master-worker has no iteration hook; checkpoint the start line
	// behind a barrier (so wave 0 commits before any kill), then lose a
	// whole worker rank at the first step boundary. The restart re-runs
	// the farm with the schedule already realized.
	mw := apps.MWParams{Tasks: 12, PerWorkerQuota: 4, Work: 100}
	app := func(env *Env) (any, error) {
		if err := env.Checkpoint(0, []byte{0}); err != nil {
			return nil, err
		}
		env.World.Barrier()
		env.Step(1, nil)
		return apps.MasterWorker(env.World, mw), nil
	}
	want := checksumOf(t, 4, func(env *Env) (any, error) {
		return apps.MasterWorker(env.World, mw), nil
	})
	rep := Run(Config{
		Ranks: 4, Protocol: SDR, Timeout: 30 * time.Second,
		CheckpointDir: t.TempDir(),
		Failures: []FailureEvent{
			{Rank: 2, Rep: 0, AtStep: 1},
			{Rank: 2, Rep: 1, AtStep: 1},
		},
	}, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", rep.Restarts)
	}
	m := rep.ResultOf(0, 0).(apps.Result)
	if m.Checksum != want {
		t.Errorf("master checksum after rollback: %v want %v", m.Checksum, want)
	}
	if m1 := rep.ResultOf(0, 1).(apps.Result); m1.Checksum != want {
		t.Errorf("master replica 1 checksum after rollback: %v want %v", m1.Checksum, want)
	}
}

func TestWriterElectionConservativeOnTornView(t *testing.T) {
	// Regression for the two-writer race: the old isWriter fell through
	// to "I am the writer" when its view showed NO alive replica of its
	// own rank — so with divergent views, a torn replica and a healthy
	// one could both write concurrently. The election must pick exactly
	// the lowest alive replica, and nobody under a torn view.
	l := core.Layout{N: 2, R: 2}
	view := func(alive ...transport.ProcID) func(transport.ProcID) bool {
		set := map[transport.ProcID]bool{}
		for _, p := range alive {
			set[p] = true
		}
		return func(p transport.ProcID) bool { return set[p] }
	}
	rank := 1
	p0, p1 := l.Phys(0, rank), l.Phys(1, rank)
	cases := []struct {
		name  string
		alive func(transport.ProcID) bool
		want  int
	}{
		{"both alive", view(p0, p1), 0},
		{"rep0 dead", view(p1), 1},
		{"rep1 dead", view(p0), 0},
		{"torn: none alive", view(), -1},
	}
	for _, tc := range cases {
		if got := writerRep(l, rank, tc.alive); got != tc.want {
			t.Errorf("%s: writerRep = %d, want %d", tc.name, got, tc.want)
		}
	}
	// The concrete race: replica 1's divergent view believes replica 0
	// dead while replica 0's torn view sees nothing alive. Old code: both
	// write. New code: only replica 1 does.
	writers := 0
	if w := writerRep(l, rank, view(p1)); w == 1 {
		writers++ // replica 1 elects itself — correct
	}
	if w := writerRep(l, rank, view()); w == 0 {
		writers++ // replica 0 must NOT fall through to itself
	}
	if writers != 1 {
		t.Fatalf("%d concurrent writers elected, want exactly 1", writers)
	}
}
