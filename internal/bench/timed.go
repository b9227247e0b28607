package bench

import (
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// timed is what every process of a timedRun reports: its window and its
// body's value.
type timed struct {
	d time.Duration
	v float64
}

// timedRun is the one timed window behind every table and figure. It runs
// cfg reps times. In each run every process calls Barrier, starts its
// clock, runs body, calls Barrier again and stops the clock, so set-up and
// teardown stay outside the window. A run's time is the maximum over the
// non-crashed processes of replica 0 (the slowest rank bounds the wall
// clock, like the paper's reported durations), and the result is the
// median over reps. It also returns rank 0 replica 0's body value (the
// checksum) and the last run's report, whose Stats and per-process timed
// results callers read.
func timedRun(cfg cluster.Config, reps int, body func(c *mpi.Comm) float64) (time.Duration, float64, *cluster.Report, error) {
	var ds []time.Duration
	var rep *cluster.Report
	for r := 0; r < reps; r++ {
		rep = cluster.Run(cfg, func(env *cluster.Env) (any, error) {
			c := env.World
			c.Barrier()
			start := time.Now()
			v := body(c)
			c.Barrier()
			return timed{time.Since(start), v}, nil
		})
		if err := rep.FirstError(); err != nil {
			return 0, 0, nil, err
		}
		var worst time.Duration
		for _, p := range rep.Procs {
			if t, ok := p.Result.(timed); ok && p.Rep == 0 && !p.Crashed && t.d > worst {
				worst = t.d
			}
		}
		ds = append(ds, worst)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2], rep.ResultOf(0, 0).(timed).v, rep, nil
}
