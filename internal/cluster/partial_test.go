package cluster

import (
	"errors"
	"testing"
	"time"

	"repro/internal/mpi"
)

func TestPartialReplicationBasic(t *testing.T) {
	// Ranks 1 and 3 run single; 0 and 2 are dual-replicated. The layout
	// is dense: exactly 6 processes exist (no phantom slots), and all
	// logical ranks must compute identical results.
	rep := Run(Config{
		Ranks: 4, Protocol: SDR, Timeout: 30 * time.Second,
		UnreplicatedRanks: []int{1, 3},
	}, ringApp(5))
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Procs) != 6 {
		t.Errorf("spawned %d processes, want 6 (dense degree-aware layout)", len(rep.Procs))
	}
	var want any
	singles := 0
	for _, p := range rep.Procs {
		if p.Rank == 1 || p.Rank == 3 {
			if p.Rep != 0 {
				t.Errorf("unreplicated rank %d has replica %d", p.Rank, p.Rep)
			}
			singles++
		}
		if want == nil {
			want = p.Result
		}
		if p.Result != want {
			t.Errorf("rank %d rep %d: %v want %v", p.Rank, p.Rep, p.Result, want)
		}
	}
	if singles != 2 {
		t.Errorf("unreplicated processes = %d, want 2", singles)
	}
}

func TestPartialReplicationDegreeVector(t *testing.T) {
	// An explicit per-rank degree vector under r=3: 3+1+2 = 6 processes,
	// identical results everywhere.
	rep := Run(Config{
		Ranks: 3, Protocol: SDR, Replication: 3, Timeout: 30 * time.Second,
		Degrees: []int{3, 1, 2},
	}, ringApp(5))
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Procs) != 6 {
		t.Fatalf("spawned %d processes, want 6 for degrees [3 1 2]", len(rep.Procs))
	}
	perRank := map[int]int{}
	var want any
	for _, p := range rep.Procs {
		perRank[p.Rank]++
		if want == nil {
			want = p.Result
		}
		if p.Result != want {
			t.Errorf("rank %d rep %d: %v want %v", p.Rank, p.Rep, p.Result, want)
		}
	}
	for rank, wantDeg := range map[int]int{0: 3, 1: 1, 2: 2} {
		if perRank[rank] != wantDeg {
			t.Errorf("rank %d ran %d replicas, want %d", rank, perRank[rank], wantDeg)
		}
	}
}

func TestPartialReplicationRejectsBadDegrees(t *testing.T) {
	for name, cfg := range map[string]Config{
		"wrong length":      {Ranks: 4, Protocol: SDR, Degrees: []int{2, 1}},
		"degree above r":    {Ranks: 2, Protocol: SDR, Replication: 2, Degrees: []int{3, 2}},
		"rank out of range": {Ranks: 2, Protocol: SDR, UnreplicatedRanks: []int{5}},
		"kill of pruned replica": {Ranks: 2, Protocol: SDR, UnreplicatedRanks: []int{1},
			Failures: []FailureEvent{{Rank: 1, Rep: 1, AtStep: 2}}},
		"recovery of pruned replica": {Ranks: 2, Protocol: SDR, UnreplicatedRanks: []int{1},
			Recoveries: []RecoveryEvent{{Rank: 1, Rep: 1, AtStep: 2}}},
		"recovery at degree 3": {Ranks: 2, Protocol: SDR, Replication: 3,
			Recoveries: []RecoveryEvent{{Rank: 1, Rep: 1, AtStep: 2}}},
	} {
		rep := Run(cfg, ringApp(2))
		err := rep.FirstError()
		if err == nil {
			t.Errorf("%s: invalid layout accepted", name)
		}
		var rde *recoveryDegreeError
		if errors.As(err, &rde) != (name == "recovery at degree 3") {
			t.Errorf("%s: FirstError = %v", name, err)
		}
	}
}

func TestDistributedRejectsKillOfPrunedReplica(t *testing.T) {
	// A -kill naming a replica the degree vector prunes must fail fast:
	// silently never firing would make the fault-injection run pass
	// without injecting anything.
	rep := RunDistributed(DistConfig{
		Config: Config{
			Ranks: 2, Replication: 2, Protocol: SDR,
			UnreplicatedRanks: []int{1},
			Failures:          []FailureEvent{{Rank: 1, Rep: 1, AtStep: 2}},
		},
	})
	if rep.FirstError() == nil {
		t.Fatal("kill of a pruned replica accepted")
	}
}

func TestPartialReplicationCollectivesAndWildcards(t *testing.T) {
	app := func(env *Env) (any, error) {
		c := env.World
		sum := c.AllreduceFloat64(float64(c.Rank())+1, mpi.OpSum)
		if c.Rank() == 0 {
			buf := make([]byte, 1)
			total := 0
			for i := 0; i < c.Size()-1; i++ {
				c.Recv(mpi.AnySource, 3, buf)
				total += int(buf[0])
			}
			if total != 1+2+3 {
				return nil, errTest
			}
		} else {
			c.Send(0, 3, []byte{byte(c.Rank())})
		}
		c.Barrier()
		return sum, nil
	}
	rep := Run(Config{
		Ranks: 4, Protocol: SDR, Timeout: 30 * time.Second,
		UnreplicatedRanks: []int{0, 2},
	}, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Procs {
		if p.Result != 10.0 {
			t.Errorf("rank %d rep %d: %v", p.Rank, p.Rep, p.Result)
		}
	}
}

func TestPartialReplicationMirror(t *testing.T) {
	rep := Run(Config{
		Ranks: 3, Protocol: Mirror, Timeout: 30 * time.Second,
		UnreplicatedRanks: []int{1},
	}, ringApp(4))
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Procs) != 5 {
		t.Errorf("spawned %d processes, want 5", len(rep.Procs))
	}
	var want any
	for _, p := range rep.Procs {
		if want == nil {
			want = p.Result
		}
		if p.Result != want {
			t.Errorf("rank %d rep %d: %v want %v", p.Rank, p.Rep, p.Result, want)
		}
	}
}

func TestPartialReplicationSurvivesReplicatedRankFailure(t *testing.T) {
	// A replicated rank loses one replica mid-run; the unreplicated
	// ranks are unaffected and the run completes.
	rep := Run(Config{
		Ranks: 3, Protocol: SDR, Timeout: 30 * time.Second,
		UnreplicatedRanks: []int{2},
		Failures:          []FailureEvent{{Rank: 1, Rep: 1, AtStep: 2}},
	}, ringStepApp(8))
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	var want any
	for _, p := range rep.Procs {
		if p.Crashed {
			continue
		}
		if want == nil {
			want = p.Result
		}
		if p.Result != want {
			t.Errorf("rank %d rep %d: %v want %v", p.Rank, p.Rep, p.Result, want)
		}
	}
}

func TestPartialReplicationUnreplicatedFailureIsFatal(t *testing.T) {
	// Losing the only replica of an unreplicated rank is an application
	// failure (checkpoint territory), not a hang.
	rep := Run(Config{
		Ranks: 2, Protocol: SDR, Timeout: 15 * time.Second,
		UnreplicatedRanks: []int{1},
		Failures:          []FailureEvent{{Rank: 1, Rep: 0, AtStep: 2}},
	}, pingPongApp(6, 8))
	if rep.TimedOut {
		t.Fatal("hung instead of failing")
	}
	if rep.ExhaustErr == nil || rep.FirstError() == nil {
		t.Error("expected a replication-exhausted error (no checkpoint store to roll back to)")
	}
}

func TestPartialReplicationUnreplicatedFailureRollsBack(t *testing.T) {
	// The partial-replication failure ladder: an unreplicated rank dying
	// skips substitution and goes straight to rollback — with a store,
	// the run restarts from the latest committed wave and completes with
	// the fault-free answer.
	const steps, every = 12, 3
	rep := Run(Config{
		Ranks: 2, Protocol: SDR, Timeout: 30 * time.Second,
		UnreplicatedRanks: []int{1},
		CheckpointDir:     t.TempDir(),
		Failures:          []FailureEvent{{Rank: 1, Rep: 0, AtStep: 7}},
	}, rollbackApp(steps, every))
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1 (unreplicated loss must escalate to rollback)", rep.Restarts)
	}
	if rep.RestartWave != 6 && rep.RestartWave != 3 {
		t.Errorf("RestartWave = %d, want a committed wave (3 or 6)", rep.RestartWave)
	}
	want := wantPingPong(steps)
	for _, p := range rep.Procs {
		if p.Crashed {
			t.Errorf("rank %d rep %d: crashed in the final epoch", p.Rank, p.Rep)
			continue
		}
		if p.Result != want {
			t.Errorf("rank %d rep %d: %v want %v", p.Rank, p.Rep, p.Result, want)
		}
	}
}

func TestPartialReplicationMessageEconomy(t *testing.T) {
	// With half the ranks replicated, application traffic sits between
	// the native (q) and fully replicated (2q) volumes.
	app := ringApp(10)
	native := Run(Config{Ranks: 4, Protocol: Native, Timeout: 30 * time.Second}, app)
	full := Run(Config{Ranks: 4, Protocol: SDR, Timeout: 30 * time.Second}, app)
	half := Run(Config{Ranks: 4, Protocol: SDR, Timeout: 30 * time.Second,
		UnreplicatedRanks: []int{1, 3}}, app)
	for _, r := range []*Report{native, full, half} {
		if err := r.FirstError(); err != nil {
			t.Fatal(err)
		}
	}
	q := native.Stats.AppMsgs()
	qf := full.Stats.AppMsgs()
	qh := half.Stats.AppMsgs()
	if !(q < qh && qh < qf) {
		t.Errorf("message economy violated: native=%d half=%d full=%d", q, qh, qf)
	}
}
