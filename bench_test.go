package repro

// One testing.B benchmark per table and figure of the paper's evaluation
// (§4), sized to run in seconds. The authoritative, paper-scale regeneration
// is `go run ./cmd/sdrbench -exp all`; these benches track the same code
// paths continuously.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/mpi"
)

// benchPingPong measures one ping-pong round trip per iteration.
func benchPingPong(b *testing.B, proto cluster.Protocol, size int) {
	rep := cluster.Run(cluster.Config{Ranks: 2, Protocol: proto, Timeout: 5 * time.Minute},
		func(env *cluster.Env) (any, error) {
			c := env.World
			buf := make([]byte, size)
			c.Barrier()
			if env.Rank == 0 && env.Rep == 0 {
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				if c.Rank() == 0 {
					c.Send(1, 0, buf)
					c.Recv(1, 1, buf)
				} else {
					c.Recv(0, 0, buf)
					c.Send(0, 1, buf)
				}
			}
			return nil, nil
		})
	if err := rep.FirstError(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(2 * size))
}

// BenchmarkFig7aLatency is the small-message end of Figure 7a: one-byte
// ping-pong under the native stack and under SDR-MPI.
func BenchmarkFig7aLatency(b *testing.B) {
	for _, proto := range []cluster.Protocol{cluster.Native, cluster.SDR} {
		b.Run(string(proto), func(b *testing.B) { benchPingPong(b, proto, 1) })
	}
}

// BenchmarkFig7bThroughput is the bandwidth end of Figure 7b: 256 KiB
// rendezvous transfers.
func BenchmarkFig7bThroughput(b *testing.B) {
	for _, proto := range []cluster.Protocol{cluster.Native, cluster.SDR} {
		b.Run(string(proto), func(b *testing.B) { benchPingPong(b, proto, 256<<10) })
	}
}

// benchWorkload times complete workload executions (one per b.N).
func benchWorkload(b *testing.B, proto cluster.Protocol, ranks int, run func(c *mpi.Comm) apps.Result) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := cluster.Run(cluster.Config{Ranks: ranks, Protocol: proto, Timeout: 5 * time.Minute},
			func(env *cluster.Env) (any, error) {
				run(env.World)
				return nil, nil
			})
		if err := rep.FirstError(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1NAS regenerates Table 1: each NAS proxy under the native
// stack and under SDR-MPI with dual replication.
func BenchmarkTable1NAS(b *testing.B) {
	s := bench.Scale{Ranks: 4, Factor: 1}
	for _, w := range bench.NASWorkloads(s) {
		for _, proto := range []cluster.Protocol{cluster.Native, cluster.SDR} {
			b.Run(fmt.Sprintf("%s/%s", w.Name, proto), func(b *testing.B) {
				benchWorkload(b, proto, w.Ranks, w.Run)
			})
		}
	}
}

// BenchmarkTable2AnySourceApps regenerates Table 2: the ANY_SOURCE
// applications (HPCCG, CM1).
func BenchmarkTable2AnySourceApps(b *testing.B) {
	s := bench.Scale{Ranks: 4, Factor: 1}
	for _, w := range bench.WildcardWorkloads(s) {
		for _, proto := range []cluster.Protocol{cluster.Native, cluster.SDR} {
			b.Run(fmt.Sprintf("%s/%s", w.Name, proto), func(b *testing.B) {
				benchWorkload(b, proto, w.Ranks, w.Run)
			})
		}
	}
}

// BenchmarkTable1Extended regenerates the extended NAS set (LU's pipelined
// wavefront, IS's Alltoallv volume, EP's communication-free lower bound).
func BenchmarkTable1Extended(b *testing.B) {
	s := bench.Scale{Ranks: 4, Factor: 1}
	for _, w := range bench.ExtendedNASWorkloads(s) {
		for _, proto := range []cluster.Protocol{cluster.Native, cluster.SDR} {
			b.Run(fmt.Sprintf("%s/%s", w.Name, proto), func(b *testing.B) {
				benchWorkload(b, proto, w.Ranks, w.Run)
			})
		}
	}
}

// BenchmarkAblationDegree measures the replication-degree sweep: the
// r-dependent cost of the sender's (r−1)-ack completion gate.
func BenchmarkAblationDegree(b *testing.B) {
	for _, r := range []int{2, 3} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			var acks uint64
			for i := 0; i < b.N; i++ {
				rep := cluster.Run(cluster.Config{
					Ranks: 4, Protocol: cluster.SDR, Replication: r, Timeout: 5 * time.Minute,
				}, func(env *cluster.Env) (any, error) {
					apps.CG(env.World, apps.CGParams{N: 512, Iters: 10})
					return nil, nil
				})
				if err := rep.FirstError(); err != nil {
					b.Fatal(err)
				}
				acks = rep.Stats.AckMsgs()
			}
			b.ReportMetric(float64(acks), "ack-msgs/run")
		})
	}
}

// BenchmarkPartialReplication regenerates the §5 partial-replication
// ablation at fixed logical rank count: wall time plus application and
// acknowledgement message counts as a function of the replicated
// fraction. The degree-aware layout spawns only Σ degrees processes, so
// the procs metric documents the hardware each point consumes.
func BenchmarkPartialReplication(b *testing.B) {
	const n = 4
	for _, quarter := range bench.PartialSweepQuarters {
		b.Run(fmt.Sprintf("frac=%dof4", quarter), func(b *testing.B) {
			proto, unrep := bench.PartialSweepPoint(n, quarter)
			var appMsgs, ackMsgs uint64
			var procs int
			for i := 0; i < b.N; i++ {
				rep := cluster.Run(cluster.Config{
					Ranks: n, Protocol: proto, Timeout: 5 * time.Minute,
					UnreplicatedRanks: unrep,
				}, func(env *cluster.Env) (any, error) {
					apps.CG(env.World, apps.CGParams{N: 512, Iters: 10})
					return nil, nil
				})
				if err := rep.FirstError(); err != nil {
					b.Fatal(err)
				}
				appMsgs = rep.Stats.AppMsgs()
				ackMsgs = rep.Stats.AckMsgs()
				procs = len(rep.Procs)
			}
			b.ReportMetric(float64(appMsgs), "app-msgs/run")
			b.ReportMetric(float64(ackMsgs), "ack-msgs/run")
			b.ReportMetric(float64(procs), "procs")
		})
	}
}

// BenchmarkRecoveryAblation regenerates the recovery-ladder ablation: the
// same unreplicated-rank kill schedule handled by localized replay
// (sender-based message logging) and by global rollback. The re-executed
// step metrics are the experiment's headline: replay must be strictly
// cheaper, and RunRecoveryAblation fails the run if it is not.
func BenchmarkRecoveryAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunRecoveryAblation(bench.Scale{Ranks: 4, Factor: 1})
		if err != nil {
			b.Fatal(err)
		}
		var replayRe, rollbackRe float64
		for _, r := range rows {
			if r.Mode == cluster.RecoveryLog {
				replayRe += float64(r.ReExecSteps)
			} else {
				rollbackRe += float64(r.ReExecSteps)
			}
		}
		b.ReportMetric(replayRe, "replay-reexec-steps")
		b.ReportMetric(rollbackRe, "rollback-reexec-steps")
	}
}

// BenchmarkFig2AnySource compares one anonymous-reception round under the
// send-deterministic protocol and under the leader-based baseline
// (Figure 2's two diagrams).
func BenchmarkFig2AnySource(b *testing.B) {
	for _, proto := range []cluster.Protocol{cluster.SDR, cluster.Leader} {
		b.Run(string(proto), func(b *testing.B) {
			rep := cluster.Run(cluster.Config{Ranks: 2, Protocol: proto, Timeout: 5 * time.Minute},
				func(env *cluster.Env) (any, error) {
					c := env.World
					buf := make([]byte, 64)
					c.Barrier()
					if env.Rank == 0 && env.Rep == 0 {
						b.ResetTimer()
					}
					for i := 0; i < b.N; i++ {
						if c.Rank() == 0 {
							c.Recv(mpi.AnySource, 0, buf)
							c.Send(1, 1, buf[:8])
						} else {
							c.Send(0, 0, buf)
							c.Recv(0, 1, buf[:8])
						}
					}
					return nil, nil
				})
			if err := rep.FirstError(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAblationMirrorVsParallel regenerates the §2.4 message-complexity
// comparison on the CG proxy (experiment abl-mirror).
func BenchmarkAblationMirrorVsParallel(b *testing.B) {
	for _, proto := range []cluster.Protocol{cluster.Native, cluster.SDR, cluster.Mirror} {
		b.Run(string(proto), func(b *testing.B) {
			var appMsgs uint64
			for i := 0; i < b.N; i++ {
				rep := cluster.Run(cluster.Config{Ranks: 4, Protocol: proto, Timeout: 5 * time.Minute},
					func(env *cluster.Env) (any, error) {
						apps.CG(env.World, apps.CGParams{N: 512, Iters: 10})
						return nil, nil
					})
				if err := rep.FirstError(); err != nil {
					b.Fatal(err)
				}
				appMsgs = rep.Stats.AppMsgs()
			}
			b.ReportMetric(float64(appMsgs), "app-msgs/run")
		})
	}
}

// BenchmarkScenarioFig3Failure times a complete run that includes a replica
// crash and the substitute take-over (Figure 3's scenario).
func BenchmarkScenarioFig3Failure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := cluster.Run(cluster.Config{
			Ranks: 2, Protocol: cluster.SDR, Timeout: time.Minute,
			Failures: []cluster.FailureEvent{{Rank: 1, Rep: 1, AtStep: 4}},
		}, benchStepApp(12))
		if err := rep.FirstError(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioFig4Recovery times a run with crash plus §3.4 recovery
// (Figure 4's scenario).
func BenchmarkScenarioFig4Recovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := cluster.Run(cluster.Config{
			Ranks: 2, Protocol: cluster.SDR, Timeout: time.Minute,
			Failures:   []cluster.FailureEvent{{Rank: 1, Rep: 1, AtStep: 3}},
			Recoveries: []cluster.RecoveryEvent{{Rank: 1, Rep: 1, AtStep: 7}},
		}, benchRecoverableApp(10))
		if err := rep.FirstError(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSDCDetection times the redMPI-style hash-compare pipeline.
func BenchmarkSDCDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := cluster.Run(cluster.Config{
			Ranks: 2, Protocol: cluster.SDR, SDC: true, Timeout: time.Minute,
		}, func(env *cluster.Env) (any, error) {
			c := env.World
			buf := make([]byte, 256)
			for k := 0; k < 20; k++ {
				if c.Rank() == 1 {
					c.Send(0, 0, buf)
				} else {
					c.Recv(1, 0, buf)
				}
			}
			c.Barrier()
			return nil, nil
		})
		if err := rep.FirstError(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchStepApp(steps int) cluster.AppFunc {
	return func(env *cluster.Env) (any, error) {
		c := env.World
		buf := make([]byte, 8)
		for i := 0; i < steps; i++ {
			env.Step(i, nil)
			if c.Rank() == 1 {
				c.Send(0, 0, buf)
				c.Recv(0, 1, buf)
			} else {
				c.Recv(1, 0, buf)
				c.Send(1, 1, buf)
			}
		}
		return nil, nil
	}
}

func benchRecoverableApp(steps int) cluster.AppFunc {
	return func(env *cluster.Env) (any, error) {
		c := env.World
		start := 0
		if b := env.Restored(); b != nil {
			start = int(b[0])
		}
		buf := make([]byte, 8)
		for i := start; i < steps; i++ {
			step := i
			env.Step(i, func() []byte { return []byte{byte(step)} })
			if c.Rank() == 1 {
				c.Send(0, 0, buf)
				c.Recv(0, 1, buf)
			} else {
				c.Recv(1, 0, buf)
				c.Send(1, 1, buf)
			}
		}
		return nil, nil
	}
}
