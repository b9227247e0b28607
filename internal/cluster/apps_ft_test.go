package cluster

import (
	"testing"
	"time"

	"repro/internal/apps"
)

// The workload fault-tolerance matrix: the extended NAS proxies must
// complete with native-identical checksums when replicas crash mid-run,
// and the master-worker workload must be flagged by the send-determinism
// checker. These tests tie the new workloads to the protocol machinery the
// earlier ft tests exercise with synthetic patterns.

func luApp(t *testing.T, withStep bool) AppFunc {
	return func(env *Env) (any, error) {
		p := apps.LUParams{NX: 6, NZ: 3, Iters: 6, Work: 1}
		if withStep {
			p.OnIter = func(it int) { env.Step(it, nil) }
		}
		return apps.LU(env.World, p), nil
	}
}

func isApp(withStep bool) AppFunc {
	return func(env *Env) (any, error) {
		p := apps.ISParams{KeysPerRank: 100, MaxKey: 1 << 9, Iters: 5, Work: 1}
		if withStep {
			p.OnIter = func(it int) { env.Step(it, nil) }
		}
		return apps.IS(env.World, p), nil
	}
}

// checksumOf runs the app natively and returns the reference checksum.
func checksumOf(t *testing.T, ranks int, app AppFunc) float64 {
	t.Helper()
	rep := Run(Config{Ranks: ranks, Protocol: Native, Timeout: 30 * time.Second}, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	return rep.Procs[0].Result.(apps.Result).Checksum
}

func TestLUSurvivesCrash(t *testing.T) {
	app := luApp(t, true)
	want := checksumOf(t, 4, luApp(t, false))
	rep := Run(Config{
		Ranks: 4, Protocol: SDR, Timeout: 30 * time.Second,
		Failures: []FailureEvent{{Rank: 2, Rep: 1, AtStep: 2}},
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
		if got := p.Result.(apps.Result).Checksum; got != want {
			t.Errorf("rank %d rep %d: checksum %v, want %v", p.Rank, p.Rep, got, want)
		}
	}
	if crashed != 1 {
		t.Errorf("crashed = %d, want 1", crashed)
	}
}

func TestLUSurvivesWavefrontSourceCrash(t *testing.T) {
	// Rank 0 sits at the head of the forward wavefront; killing one of
	// its replicas stresses substitution at the pipeline source.
	app := luApp(t, true)
	want := checksumOf(t, 4, luApp(t, false))
	rep := Run(Config{
		Ranks: 4, Protocol: SDR, Timeout: 30 * time.Second,
		Failures: []FailureEvent{{Rank: 0, Rep: 0, AtStep: 3}},
	}, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Procs {
		if !p.Crashed {
			if got := p.Result.(apps.Result).Checksum; got != want {
				t.Errorf("rank %d rep %d: checksum %v, want %v", p.Rank, p.Rep, got, want)
			}
		}
	}
}

func TestISSurvivesCrash(t *testing.T) {
	// IS is Alltoallv-dominated: the crash lands between two collective
	// exchanges and the substitute must stand in inside a collective-heavy
	// pattern.
	app := isApp(true)
	want := checksumOf(t, 4, isApp(false))
	rep := Run(Config{
		Ranks: 4, Protocol: SDR, Timeout: 30 * time.Second,
		Failures: []FailureEvent{{Rank: 1, Rep: 0, AtStep: 2}},
	}, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Procs {
		if !p.Crashed {
			if got := p.Result.(apps.Result).Checksum; got != want {
				t.Errorf("rank %d rep %d: checksum %v, want %v", p.Rank, p.Rep, got, want)
			}
		}
	}
}

func TestEPUnderAllProtocols(t *testing.T) {
	// EP has almost no communication: every protocol must agree exactly.
	app := func(env *Env) (any, error) {
		return apps.EP(env.World, apps.EPParams{Pairs: 2000, Work: 1}), nil
	}
	want := checksumOf(t, 4, app)
	for _, proto := range []Protocol{SDR, Mirror, Leader} {
		rep := Run(Config{Ranks: 4, Protocol: proto, Timeout: 30 * time.Second}, app)
		if err := rep.FirstError(); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		for _, p := range rep.Procs {
			if got := p.Result.(apps.Result).Checksum; got != want {
				t.Errorf("%s rank %d rep %d: %v want %v", proto, p.Rank, p.Rep, got, want)
			}
		}
	}
}

func TestMasterWorkerViolatesSendDeterminism(t *testing.T) {
	// The paper (§2.1) singles out master-worker codes as the main class
	// that is NOT send-deterministic. Running one under dual replication
	// with per-world timing skew makes the two master replicas assign
	// tasks in different orders; the recorders must disagree on the
	// master's send sequence while the aggregate result stays identical.
	app := func(env *Env) (any, error) {
		rep := env.Rep
		return apps.MasterWorker(env.World, apps.MWParams{
			Tasks: 12, PerWorkerQuota: 4, Work: 200,
			// World-dependent delay: replica worlds finish tasks in
			// different orders — the timing jitter of a real cluster,
			// made deterministic.
			ExtraDelay: func(task int) int { return ((task + rep*2) % 3) * 400 },
		}), nil
	}
	rep := Run(Config{
		Ranks: 4, Protocol: SDR, Timeout: 30 * time.Second,
		TraceSends: true, KeepEvents: 256,
	}, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	// Aggregate result: identical on both master replicas (the violation
	// is invisible to output checks).
	m0 := rep.ResultOf(0, 0).(apps.Result)
	m1 := rep.ResultOf(0, 1).(apps.Result)
	if m0.Checksum != m1.Checksum {
		t.Fatalf("master checksums diverged: %v vs %v", m0.Checksum, m1.Checksum)
	}
	// Send sequence of the two master replicas: must be flagged.
	var r0, r1 *Recorder
	for _, p := range rep.Procs {
		if p.Rank == 0 && p.Rep == 0 {
			r0 = rep.Recorders[p.Proc]
		}
		if p.Rank == 0 && p.Rep == 1 {
			r1 = rep.Recorders[p.Proc]
		}
	}
	if r0 == nil || r1 == nil {
		t.Fatal("recorders missing")
	}
	if err := CheckSendDeterminism(r0, r1); err == nil {
		t.Error("send-determinism checker did not flag the master-worker assignment divergence")
	}
}

func TestMasterWorkerBlockingSendsDeadlockUnderSDR(t *testing.T) {
	// The flip side of the violation test: with blocking task hand-outs,
	// two master replicas that diverge in assignment order block on each
	// other — master A waits for the ack of a message master B has not
	// yet sent, and vice versa. The run cannot finish; the watchdog must
	// fire. This is the concrete failure mode that restricts SDR-MPI to
	// send-deterministic applications.
	//
	// A send completes on its predecessor's acks, so the masters must
	// diverge by two hand-outs to one worker: each world has its own fast
	// workers (25x faster than the slow ones), whose master runs two tasks
	// ahead on them while the other world's master has handed out one.
	if testing.Short() {
		t.Skip("deadlock demonstration needs the full watchdog wait")
	}
	app := func(env *Env) (any, error) {
		slow := (env.Rank+env.Rep)%2 == 1
		return apps.MasterWorker(env.World, apps.MWParams{
			Tasks: 12, PerWorkerQuota: 4, Work: 200, BlockingSends: true,
			ExtraDelay: func(int) int {
				if slow {
					return 5000
				}
				return 0
			},
		}), nil
	}
	rep := Run(Config{Ranks: 4, Protocol: SDR, Timeout: 3 * time.Second}, app)
	if !rep.TimedOut {
		t.Error("blocking master-worker under SDR completed; expected the ack circular wait to deadlock")
	}
}

func TestHPCCGPassesSendDeterminismCheck(t *testing.T) {
	// The control for the master-worker test: HPCCG also uses ANY_SOURCE,
	// but its wildcard arrival order never reaches the send sequence —
	// the defining property of send-determinism (§2.1). The same checker
	// must stay silent.
	app := func(env *Env) (any, error) {
		return apps.HPCCG(env.World, apps.HPCCGParams{NX: 6, NY: 6, NZ: 3, Iters: 4, Work: 1}), nil
	}
	rep := Run(Config{
		Ranks: 4, Protocol: SDR, Timeout: 30 * time.Second,
		TraceSends: true, KeepEvents: 4096,
	}, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 4; rank++ {
		var recs []*Recorder
		for _, p := range rep.Procs {
			if p.Rank == rank {
				recs = append(recs, rep.Recorders[p.Proc])
			}
		}
		if len(recs) != 2 || recs[0] == nil || recs[1] == nil {
			t.Fatalf("rank %d: recorders missing", rank)
		}
		if err := CheckSendDeterminism(recs...); err != nil {
			t.Errorf("rank %d flagged as non-send-deterministic: %v", rank, err)
		}
	}
}
