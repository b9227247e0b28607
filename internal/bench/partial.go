package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/mpi"
)

// PartialRow is one point of the partial-replication ablation: what
// fraction of ranks are replicated, the physical processes the
// degree-aware layout actually spawns, the wall-clock overhead against
// the unreplicated run, and the protocol traffic that overhead buys. The
// paper's closing section points to partial replication (Elliott et al.
// [6]) as the route past the 50 % efficiency ceiling of full dual
// replication; the O(q·r) message cost and the ack machinery are paid
// only where r > 1, which these columns make visible.
type PartialRow struct {
	ReplicatedRanks int
	TotalRanks      int
	PhysicalProcs   int
	Elapsed         time.Duration
	OverheadPct     float64
	AppMsgs         uint64 // application messages on the wire
	AckMsgs         uint64 // protocol acknowledgement messages
}

// AckPerApp is the protocol-overhead ratio: acks per application message.
func (r PartialRow) AckPerApp() float64 {
	if r.AppMsgs == 0 {
		return 0
	}
	return float64(r.AckMsgs) / float64(r.AppMsgs)
}

// PartialSweepQuarters are the sweep's points: quarter/4 of the ranks
// replicated, from the native baseline (0) to full dual replication (4).
var PartialSweepQuarters = []int{0, 1, 2, 3, 4}

// PartialSweepPoint defines one sweep point for n ranks: the protocol to
// run and the ranks left unreplicated. Quarter 0 is the native baseline.
// Shared by RunPartialSweep and BenchmarkPartialReplication so the
// CI-archived benchmark and the sdrbench table describe the same
// experiment.
func PartialSweepPoint(n, quarter int) (cluster.Protocol, []int) {
	if quarter == 0 {
		return cluster.Native, nil
	}
	var unrep []int
	for rank := n * quarter / 4; rank < n; rank++ {
		unrep = append(unrep, rank)
	}
	return cluster.SDR, unrep
}

// RunPartialSweep measures the CG proxy with 0 %, 25 %, 50 %, 75 % and
// 100 % of ranks replicated at a fixed logical rank count (experiment id:
// ablation-partial), recording wall time and message counts per point.
func RunPartialSweep(s Scale) ([]PartialRow, error) {
	n := s.Ranks
	w := Workload{"CG", n, func(c *mpi.Comm) apps.Result {
		return apps.CG(c, apps.CGParams{N: 1024 * s.Factor, Iters: 15 * s.Factor, Work: 3000})
	}}
	var rows []PartialRow
	var base time.Duration
	for _, quarter := range PartialSweepQuarters {
		proto, unrep := PartialSweepPoint(n, quarter)
		d, _, rep, err := timedRun(cluster.Config{
			Ranks: n, Protocol: proto, Timeout: 5 * time.Minute,
			UnreplicatedRanks: unrep,
		}, 1, w.checksum)
		if err != nil {
			return nil, fmt.Errorf("partial %d/4: %w", quarter, err)
		}
		if quarter == 0 {
			base = d
		}
		rows = append(rows, PartialRow{
			ReplicatedRanks: n * quarter / 4,
			TotalRanks:      n,
			PhysicalProcs:   len(rep.Procs),
			Elapsed:         d,
			OverheadPct:     (d.Seconds() - base.Seconds()) / base.Seconds() * 100,
			AppMsgs:         rep.Stats.AppMsgs(),
			AckMsgs:         rep.Stats.AckMsgs(),
		})
	}
	return rows, nil
}

// RenderPartial prints the sweep.
func RenderPartial(w io.Writer, rows []PartialRow) {
	fmt.Fprintln(w, "Partial replication ablation (CG proxy; §5 outlook / MR-MPI feature)")
	fmt.Fprintf(w, "%-12s %8s %12s %14s %10s %10s %9s\n",
		"replicated", "procs", "time (s)", "overhead (%)", "app msgs", "ack msgs", "acks/app")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d/%-5d %8d %12.3f %14.2f %10d %10d %9.3f\n",
			r.ReplicatedRanks, r.TotalRanks, r.PhysicalProcs, r.Elapsed.Seconds(),
			r.OverheadPct, r.AppMsgs, r.AckMsgs, r.AckPerApp())
	}
}
