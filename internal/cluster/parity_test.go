package cluster

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/mpi"
)

// launchBoth runs cfg under Run and under RunDistributed — the worker
// helper running the same app, "ring" (replayRing(12, 2)) or "boom"
// (boomRing) — and returns each run's tally, first error, and final-epoch
// checksum per "rank.rep" of every process that finished.
func launchBoth(t *testing.T, cfg Config, dir func() string, app string) (tallies [2]Tally, errs [2]error, sums [2]map[string]float64) {
	t.Helper()
	cfg.CheckpointDir = dir()
	in := Run(cfg, map[string]AppFunc{"ring": replayRing(12, 2, nil), "boom": boomRing}[app])
	tallies[0], errs[0], sums[0] = in.Tally, in.FirstError(), map[string]float64{}
	for _, p := range in.Procs {
		if !p.Crashed && p.Err == nil && p.Result != nil {
			sums[0][fmt.Sprintf("%d.%d", p.Rank, p.Rep)] = float64(p.Result.(uint64))
		}
	}
	cfg.CheckpointDir = dir()
	dist := RunDistributed(DistConfig{
		Config:    cfg,
		WorkerCmd: []string{os.Args[0], "-test.run=^TestDistWorkerHelper$"},
		WorkerEnv: []string{"SDR_TEST_APP=" + app},
		LogSink:   io.Discard,
	})
	tallies[1], errs[1], sums[1] = dist.Tally, dist.FirstError(), map[string]float64{}
	for _, p := range dist.Procs {
		if !p.Crashed && p.Err == "" {
			sums[1][fmt.Sprintf("%d.%d", p.Rank, p.Rep)] = p.Result.Checksum
		}
	}
	return tallies, errs, sums
}

// TestLauncherParity runs one schedule per rung of the recovery ladder
// through both launchers — goroutine seats and OS-process seats under the
// one epoch loop — and requires the same rung counts and the same
// checksums, each the fault-free ring sum.
func TestLauncherParity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	const ranks, steps = 3, 12
	for _, tc := range []struct {
		name              string
		unreplicated      []int
		mode              RecoveryMode
		failures          []FailureEvent
		restarts, replays int
		finished          int
	}{
		{name: "substitution", failures: []FailureEvent{{Rank: 1, Rep: 1, AtStep: 5}},
			finished: 5},
		{name: "localized replay", unreplicated: []int{1}, mode: RecoveryLog,
			failures: []FailureEvent{{Rank: 1, Rep: 0, AtStep: 7}}, replays: 1, finished: 5},
		{name: "rollback", failures: []FailureEvent{{Rank: 1, Rep: 0, AtStep: 7}, {Rank: 1, Rep: 1, AtStep: 7}},
			restarts: 1, finished: 6},
		// Replica 0 of rank 1 dies in the epoch the rollback ends and again
		// in the one it starts: its step-7 event must not fire a second time,
		// its step-9 one must.
		{name: "one replica twice across a rollback", failures: []FailureEvent{{Rank: 1, Rep: 0, AtStep: 7},
			{Rank: 1, Rep: 1, AtStep: 7}, {Rank: 1, Rep: 0, AtStep: 9}}, restarts: 1, finished: 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Ranks: ranks, Replication: 2, Protocol: SDR, UnreplicatedRanks: tc.unreplicated,
				RecoveryMode: tc.mode, Failures: tc.failures, Timeout: 60 * time.Second}
			tallies, errs, sums := launchBoth(t, cfg, t.TempDir, "ring")
			for i, launcher := range []string{"Run", "RunDistributed"} {
				if errs[i] != nil {
					t.Fatalf("%s: %v", launcher, errs[i])
				}
				if got := tallies[i]; got.Restarts != tc.restarts || got.Replays != tc.replays {
					t.Errorf("%s: restarts %d, replays %d; want %d, %d", launcher, got.Restarts, got.Replays, tc.restarts, tc.replays)
				}
				if len(sums[i]) != tc.finished {
					t.Errorf("%s: %d processes finished, want %d: %v", launcher, len(sums[i]), tc.finished, sums[i])
				}
				for id, sum := range sums[i] {
					var rank, rep int
					fmt.Sscanf(id, "%d.%d", &rank, &rep)
					left := (rank - 1 + ranks) % ranks
					if want := float64(left*1000*steps + steps*(steps-1)/2); sum != want {
						t.Errorf("%s: rank %d rep %d sum %v, fault-free %v", launcher, rank, rep, sum, want)
					}
				}
			}
			for id, sum := range sums[0] {
				if sums[1][id] != sum {
					t.Errorf("rank.rep %s: Run %v, RunDistributed %v", id, sum, sums[1][id])
				}
			}
		})
	}
	// Rank 2's application fails while its neighbours wait for it: both
	// launchers report that error, not the watchdog's.
	for _, proto := range []Protocol{Native, SDR} {
		t.Run("app error/"+string(proto), func(t *testing.T) {
			_, errs, _ := launchBoth(t, Config{Ranks: 4, Protocol: proto, Timeout: 500 * time.Millisecond}, t.TempDir, "boom")
			for i, launcher := range []string{"Run", "RunDistributed"} {
				if err := errs[i]; err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "rank 2 ") {
					t.Errorf("%s: FirstError = %v, want rank 2's boom", launcher, err)
				}
			}
		})
	}
}

var errBoom = errors.New("boom")

// boomRing is a ring exchange of 12 steps in which rank 2 returns errBoom
// at step 3; its neighbours then wait for it until the watchdog.
func boomRing(env *Env) (any, error) {
	c := env.World
	n, me := c.Size(), int(c.Rank())
	sbuf, rbuf := make([]byte, 8), make([]byte, 8)
	for i := 0; i < 12; i++ {
		if me == 2 && i == 3 {
			return nil, errBoom
		}
		req := c.Isend(mpi.Rank((me+1)%n), 0, sbuf)
		c.Recv(mpi.Rank((me-1+n)%n), 0, rbuf)
		mpi.Waitall(req)
	}
	return uint64(0), nil
}

// TestFailedRelaunchNamesRank kills a logging rank whose newest replay
// state does not decode, before any wave is committed: the localized rung
// fails closed, rollback has nothing to go back to, and both launchers
// must say which rank was lost rather than only that replication ran out.
func TestFailedRelaunchNamesRank(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	planted := func() string {
		// A well-footered mlog+ckpt pair for rank 1 alone at a bogus future
		// wave: LatestLog picks it, the codec rejects it, and with no
		// other rank at that wave it is never a committed common one.
		dir := t.TempDir()
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
		return dir
	}
	cfg := Config{Ranks: 3, Protocol: SDR, UnreplicatedRanks: []int{1}, RecoveryMode: RecoveryLog,
		Failures: []FailureEvent{{Rank: 1, Rep: 0, AtStep: 1}}, Timeout: 60 * time.Second}
	tallies, _, _ := launchBoth(t, cfg, planted, "ring")
	for i, launcher := range []string{"Run", "RunDistributed"} {
		err := tallies[i].ExhaustErr
		if err == nil || !strings.Contains(err.Error(), "all replicas of rank 1 failed") ||
			!strings.Contains(err.Error(), "no committed checkpoint wave") {
			t.Errorf("%s: ExhaustErr = %v, want it to name rank 1 and the missing wave", launcher, err)
		}
		if tallies[i].Replays != 0 || tallies[i].Restarts != 0 {
			t.Errorf("%s: replays %d, restarts %d; want 0, 0", launcher, tallies[i].Replays, tallies[i].Restarts)
		}
	}
}

// TestEpochMetricsCountInProcessRollback pins the one set of sdr_cluster_*
// epoch series: an in-process run whose rank loses both replicas executes
// two epochs and one rollback restart, and the counters say so.
func TestEpochMetricsCountInProcessRollback(t *testing.T) {
	epochs, restarts := mEpochs.Value(), mRestarts.Value()
	rep := Run(Config{
		Ranks: 2, Protocol: SDR, Timeout: 20 * time.Second, CheckpointDir: t.TempDir(),
		Failures: []FailureEvent{{Rank: 1, Rep: 0, AtStep: 7}, {Rank: 1, Rep: 1, AtStep: 7}},
	}, rollbackApp(12, 3))
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", rep.Restarts)
	}
	if got := mRestarts.Value() - restarts; got != 1 {
		t.Errorf("sdr_cluster_restarts_total rose by %d, want 1", got)
	}
	if got := mEpochs.Value() - epochs; got != 2 {
		t.Errorf("sdr_cluster_epochs_total rose by %d, want 2", got)
	}
}

// TestFirstErrorNamesTheDeadline: both launchers' reports lead with the
// same timed-out error, naming the per-epoch deadline.
func TestFirstErrorNamesTheDeadline(t *testing.T) {
	tally := Tally{TimedOut: true, timeout: 90 * time.Second}
	const want = "cluster: run timed out after 1m30s"
	if err := (&Report{Tally: tally}).FirstError(); err == nil || err.Error() != want {
		t.Errorf("Report.FirstError = %v, want %q", err, want)
	}
	if err := (&DistReport{Tally: tally}).FirstError(); err == nil || err.Error() != want {
		t.Errorf("DistReport.FirstError = %v, want %q", err, want)
	}
}
