package main

import (
	"math"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/mpi"
)

// proxy is the two application workloads: a NAS/Mantevo proxy on 8 ranks,
// under SDR with two replicas per rank and then under Native, with Work 0
// so wall time is the program's own CPU and not a timer. The iterations are
// run as a series of short solves, as a time-stepping code would, and every
// solve's checksum is an operation checked against Native's.
type proxy struct {
	useTCP bool
	solves int
	iters  int
	kernel func(c *mpi.Comm, iters int) apps.Result
}

const proxyRanks = 8

func prepareProxy(hpccg bool, solves, iters int) prepareFunc {
	return func(int64, string) (runner, error) {
		// The proxies generate their own data from the rank, so the seed
		// has nothing to drive here.
		p := &proxy{useTCP: hpccg, solves: solves, iters: iters}
		if hpccg {
			p.kernel = func(c *mpi.Comm, iters int) apps.Result {
				return apps.HPCCG(c, apps.HPCCGParams{NX: 32, NY: 32, NZ: 8, Iters: iters, Work: 0})
			}
		} else {
			p.kernel = func(c *mpi.Comm, iters int) apps.Result {
				return apps.CG(c, apps.CGParams{N: 4096, Iters: iters, Work: 0})
			}
		}
		return p, nil
	}
}

func (p *proxy) counts() map[string]int {
	return map[string]int{"solves_per_rep": p.solves, "iters_per_solve": p.iters, "ranks": proxyRanks}
}

func (p *proxy) close() {}

// proxyResult is one process's outcome: the bits of every solve's
// checksum, and how many iterations the solver performed.
type proxyResult struct {
	checksums  []uint64
	iterations int
}

func (p *proxy) app() appFunc {
	return func(env *cluster.Env, m *runMeter, pt *procTrace) (any, error) {
		c := env.World
		// One untimed solve: lazy dials and pool fills happen here.
		p.kernel(c, p.iters)
		res := proxyResult{checksums: make([]uint64, 0, p.solves)}
		c.Barrier()
		m.region.begin()
		start := time.Now()
		for s := 0; s < p.solves; s++ {
			var t0 int64
			if pt != nil {
				t0 = pt.begin()
			}
			r := p.kernel(c, p.iters)
			if pt != nil {
				pt.leaf(spanKernel, t0)
			}
			res.checksums = append(res.checksums, math.Float64bits(r.Checksum))
			res.iterations += r.Iterations
		}
		m.addKernel(time.Since(start).Seconds())
		c.Barrier()
		m.region.end()
		return res, nil
	}
}

func (p *proxy) rep(rec *recorder) repOut {
	out := newRepOut()
	out.attempted = p.solves // every solve's checksum, replicated against Native
	cfg := cluster.Config{Ranks: proxyRanks, Replication: 2, UseTCP: p.useTCP, Timeout: 2 * time.Minute}
	sdr, nat, delta := launchPair(cfg, rec, p.app(), p.app())
	if out.failRuns(sdr, nat) {
		return out
	}
	// Correctness: every process of the replicated run reproduces the
	// Native checksum of every solve, bit for bit.
	ref, _ := nat.rep.ResultOf(0, 0).(proxyResult)
	bad := make([]bool, p.solves)
	for _, pr := range sdr.rep.Procs {
		got, _ := pr.Result.(proxyResult)
		for s := range bad {
			if s >= len(got.checksums) || s >= len(ref.checksums) || got.checksums[s] != ref.checksums[s] {
				bad[s] = true
			}
		}
	}
	for _, b := range bad {
		if b {
			out.failed++
		}
	}

	// Logical application messages: what the Native run put on the wire
	// (collectives' constituent messages included), less the share of the
	// untimed first solve. The two barriers are counted in, a few dozen
	// messages against thousands per solve.
	msgs := float64(nat.rep.Stats.AppMsgs()) * float64(p.solves) / float64(p.solves+1)
	out.set("setup_s", sdr.untimedS()+nat.untimedS())
	out.setTimings(timings{wall: sdr.meter.region.wall(), cpu: sdr.meter.region.cpu(), heapBytes: float64(sdr.heap.bytes), msgs: msgs})
	out.set("native_wall_s", nat.meter.region.wall())
	out.setClusterLayer(sdr, nat, msgs, delta)
	k := sdr.meter.kernel
	lo, hi := quantile(k, 0), quantile(k, 1)
	out.set("apps.kernel_s_max", hi)
	out.set("apps.rank_skew_pct", (hi-lo)/hi*100)
	out.set("apps.iterations", float64(ref.iterations))

	if rec != nil {
		out.takeSpans(rec)
	}
	return out
}
