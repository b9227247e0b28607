package cluster

import (
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/transport"
)

func TestTripleReplication(t *testing.T) {
	// Algorithm 1 is defined for any replication degree r; run the full
	// protocol at r = 3 (mirror too: O(q·r²) = 9q messages).
	for _, proto := range []Protocol{SDR, Mirror} {
		t.Run(string(proto), func(t *testing.T) {
			rep := Run(Config{Ranks: 3, Replication: 3, Protocol: proto, Timeout: 30 * time.Second},
				ringApp(4))
			if err := rep.FirstError(); err != nil {
				t.Fatal(err)
			}
			if len(rep.Procs) != 9 {
				t.Fatalf("procs = %d", len(rep.Procs))
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
		})
	}
}

func TestTripleReplicationSurvivesTwoFailures(t *testing.T) {
	// With r = 3, two replicas of the same rank may die and the rank
	// still lives; substitution cascades (Algorithm 1 line 22's "for all
	// l such that substitute[l] = rep").
	rep := Run(Config{
		Ranks: 2, Replication: 3, Protocol: SDR, Timeout: 30 * time.Second,
		Failures: []FailureEvent{
			{Rank: 1, Rep: 0, AtStep: 2},
			{Rank: 1, Rep: 1, AtStep: 5},
		},
	}, pingPongApp(10, 8))
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	want := wantPingPong(10)
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
		t.Errorf("crashed = %d", crashed)
	}
}

func TestRunOverLoopbackTCP(t *testing.T) {
	// The whole stack over real loopback TCP connections — also when a
	// delay model is configured: UseTCP ignores it, the bytes must really
	// cross the sockets (a delayed send is routed around the wire).
	const flushes = "sdr_transport_flushes_total"
	for name, delay := range map[string]*transport.DelayModel{
		"no-delay":      nil,
		"delay-ignored": {Latency: 50 * time.Microsecond},
	} {
		t.Run(name, func(t *testing.T) {
			before := obs.Default.Snapshot()[flushes]
			rep := Run(Config{Ranks: 3, Protocol: SDR, UseTCP: true, Delay: delay, Timeout: 60 * time.Second},
				ringApp(3))
			if err := rep.FirstError(); err != nil {
				t.Fatal(err)
			}
			var want any
			for _, p := range rep.Procs {
				if want == nil {
					want = p.Result
				}
				if p.Result != want {
					t.Errorf("TCP run: rank %d rep %d got %v want %v", p.Rank, p.Rep, p.Result, want)
				}
			}
			if obs.Default.Snapshot()[flushes] == before {
				t.Errorf("%s did not advance: no frame crossed the socket wire", flushes)
			}
		})
	}
}

func TestWatchdogTimesOutHungRun(t *testing.T) {
	rep := Run(Config{Ranks: 2, Protocol: SDR, Timeout: 500 * time.Millisecond},
		func(env *Env) (any, error) {
			c := env.World
			if c.Rank() == 0 {
				// Recv that will never be satisfied.
				c.Recv(1, 999, make([]byte, 1))
			}
			c.Barrier()
			return nil, nil
		})
	if !rep.TimedOut {
		t.Fatal("watchdog did not fire")
	}
	if rep.FirstError() == nil {
		t.Fatal("timed-out run should report an error")
	}
}

func TestAppErrorPropagates(t *testing.T) {
	rep := Run(Config{Ranks: 2, Protocol: Native, Timeout: 10 * time.Second},
		func(env *Env) (any, error) {
			if env.Rank == 1 {
				return nil, errTest
			}
			return nil, nil
		})
	if rep.FirstError() == nil {
		t.Fatal("app error lost")
	}
}

var errTest = &testErr{}

type testErr struct{}

func (*testErr) Error() string { return "synthetic app failure" }

func TestResultOfLookup(t *testing.T) {
	rep := Run(Config{Ranks: 2, Protocol: SDR, Timeout: 10 * time.Second},
		func(env *Env) (any, error) {
			return env.Rank*10 + env.Rep, nil
		})
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if rep.ResultOf(1, 1) != 11 {
		t.Errorf("ResultOf(1,1) = %v", rep.ResultOf(1, 1))
	}
	if rep.ResultOf(9, 9) != nil {
		t.Error("missing proc should yield nil")
	}
}

func TestNondeterministicCompletionUnderReplication(t *testing.T) {
	// Which of two receives MPI_Test finds complete first is
	// non-deterministic; send-determinism makes that harmless. Exercise it
	// under SDR with order-insensitive use.
	rep := Run(Config{Ranks: 3, Protocol: SDR, Timeout: 30 * time.Second},
		func(env *Env) (any, error) {
			c := env.World
			if c.Rank() == 0 {
				b1 := make([]byte, 1)
				b2 := make([]byte, 1)
				reqs := []*mpi.Request{c.Irecv(1, 0, b1), c.Irecv(2, 0, b2)}
				sum := 0
				for done := 0; done < 2; {
					for i, r := range reqs {
						if r == nil {
							continue
						}
						if st, ok := r.Test(); ok {
							sum += st.Count
							reqs[i] = nil
							done++
						}
					}
				}
				return sum, nil
			}
			c.Send(0, 0, []byte{byte(c.Rank())})
			return 2, nil
		})
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Procs {
		if p.Rank == 0 && p.Result != 2 {
			t.Errorf("rank0 rep%d: %v", p.Rep, p.Result)
		}
	}
}

func TestStatsAccountingUnderFailure(t *testing.T) {
	// After a crash, the app-message volume still bounded (no resend
	// storms): parallel protocol sends each payload at most r times.
	const steps = 8
	rep := Run(Config{
		Ranks: 2, Protocol: SDR, Timeout: 30 * time.Second,
		Failures: []FailureEvent{{Rank: 1, Rep: 1, AtStep: 3}},
	}, pingPongApp(steps, 8))
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	// Upper bound: 2 worlds × 2 msgs/step × steps, plus substitution
	// duplicates bounded by 2 msgs/step for the post-failure steps.
	maxApp := uint64(2*2*steps + 2*steps)
	if rep.Stats.AppMsgs() > maxApp {
		t.Errorf("app messages %d exceed bound %d (resend storm?)", rep.Stats.AppMsgs(), maxApp)
	}
}
