package bench

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// timed is what every process of a timedRun reports: its window and its
// body's value.
type timed struct {
	d time.Duration
	v float64
}

// timedRun is the one timed window behind every table and figure; sweep
// is its only caller. It runs cfg reps times. In each run every process
// calls Barrier, starts its clock, runs body, calls Barrier again and
// stops the clock, so set-up and teardown stay outside the window. A
// run's time is the maximum over the non-crashed processes of replica 0
// (the slowest rank bounds the wall clock, like the paper's reported
// durations), and the result is the median over reps. It also returns
// rank 0 replica 0's body value (the checksum) and the last run's report,
// whose Stats and per-process timed results callers read.
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

// point is one configuration of a sweep: its row label, the run's config
// and the timed body.
type point struct {
	label string
	cfg   cluster.Config
	body  func(c *mpi.Comm) float64
}

// SweepRow is one point of a sweep, measured.
type SweepRow struct {
	Label    string
	Procs    int           // physical processes the layout spawned
	Elapsed  time.Duration // median over the repetitions
	Checksum float64       // rank 0 replica 0's body value
	Stats    transport.StatsSnapshot
	Report   *cluster.Report // the last repetition's
}

// AckRatio is ack messages per application message: the protocol
// traffic that ack coalescing cuts (0 with no application message).
func (r SweepRow) AckRatio() float64 {
	if r.Stats.AppMsgs() == 0 {
		return 0
	}
	return float64(r.Stats.AckMsgs()) / float64(r.Stats.AppMsgs())
}

// sweep times every point in order, each through timedRun with reps
// repetitions, and returns one row per point. Its errors name the
// experiment and the point.
func sweep(name string, reps int, points []point) ([]SweepRow, error) {
	rows := make([]SweepRow, 0, len(points))
	for _, p := range points {
		d, sum, rep, err := timedRun(p.cfg, reps, p.body)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", name, p.label, err)
		}
		rows = append(rows, SweepRow{Label: p.label, Procs: len(rep.Procs), Elapsed: d,
			Checksum: sum, Stats: rep.Stats, Report: rep})
	}
	return rows, nil
}

// workloadSweep sweeps w over the points' configs (their Ranks and body
// are w's) and fails when a point's checksum differs from the first
// point's: replication must not change what the workload computes, the
// check VerifyRows makes for Tables 1 and 2.
func workloadSweep(name string, reps int, w Workload, points []point) ([]SweepRow, error) {
	for i := range points {
		points[i].cfg.Ranks, points[i].body = w.Ranks, w.checksum
	}
	rows, err := sweep(name, reps, points)
	if err != nil {
		return nil, err
	}
	for _, r := range rows[1:] {
		if r.Checksum != rows[0].Checksum {
			return nil, fmt.Errorf("%s %s: checksum %v differs from %s's %v",
				name, r.Label, r.Checksum, rows[0].Label, rows[0].Checksum)
		}
	}
	return rows, nil
}

// overheadPct is d's overhead over base, in percent.
func overheadPct(d, base time.Duration) float64 {
	return (d.Seconds() - base.Seconds()) / base.Seconds() * 100
}
