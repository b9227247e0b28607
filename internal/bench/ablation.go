package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// Sweep is one ablation's table: its points, measured in order, under a
// title and a heading for the label column. RenderSweep prints it.
type Sweep struct {
	Title string
	Label string
	Rows  []SweepRow
}

// RenderSweep prints a sweep: per point its processes, time, overhead
// against the first point, and traffic (§2.4's O(q·r) vs O(q·r²) counts).
func RenderSweep(w io.Writer, s Sweep) {
	fmt.Fprintln(w, s.Title)
	fmt.Fprintf(w, "%-14s %6s %12s %14s %10s %10s %10s %9s\n",
		s.Label, "procs", "time (s)", "overhead (%)", "app msgs", "ack msgs", "ctl msgs", "acks/app")
	for _, r := range s.Rows {
		fmt.Fprintf(w, "%-14s %6d %12.6f %14.2f %10d %10d %10d %9.3f\n",
			r.Label, r.Procs, r.Elapsed.Seconds(), overheadPct(r.Elapsed, s.Rows[0].Elapsed),
			r.Stats.AppMsgs(), r.Stats.AckMsgs(), r.Stats.Msgs[transport.KindCtl], r.AckRatio())
	}
}

// protocols are one point per protocol, each with timeout.
func protocols(timeout time.Duration, protos ...cluster.Protocol) []point {
	var pts []point
	for _, proto := range protos {
		pts = append(pts, point{label: string(proto), cfg: cluster.Config{Protocol: proto, Timeout: timeout}})
	}
	return pts
}

// RunMirrorAblation runs the CG proxy under native, SDR (parallel) and
// mirror, reporting time and traffic (experiment ablation-mirror).
func RunMirrorAblation(s Scale) (Sweep, error) {
	rows, err := workloadSweep("mirror ablation", 1, Workload{"CG", s.Ranks, func(c *mpi.Comm) apps.Result {
		return apps.CG(c, apps.CGParams{N: 2048 * s.Factor, Iters: 20 * s.Factor, Work: 2})
	}}, protocols(5*time.Minute, cluster.Native, cluster.SDR, cluster.Mirror))
	return Sweep{"Ablation — parallel (SDR) vs mirror message complexity (CG proxy)", "protocol", rows}, err
}

// RunLeaderAblation runs the ANY_SOURCE-heavy HPCCG proxy under SDR and
// the leader baseline (experiment ablation-leader): the claim is that the
// leader pays for every wildcard reception while SDR does not (§3.1,
// §4.4).
func RunLeaderAblation(s Scale) (Sweep, error) {
	rows, err := workloadSweep("leader ablation", 1, Workload{"HPCCG", s.Ranks, func(c *mpi.Comm) apps.Result {
		return apps.HPCCG(c, apps.HPCCGParams{NX: 24, NY: 24, NZ: 6 * s.Factor, Iters: 15 * s.Factor, Work: 2})
	}}, protocols(5*time.Minute, cluster.Native, cluster.SDR, cluster.Leader))
	return Sweep{"Ablation — leader vs leaderless ANY_SOURCE (HPCCG proxy)", "protocol", rows}, err
}

// RunDegreeSweep measures the CG proxy at replication degree r = 1
// (native), 2 and 3, the median of three runs per degree (experiment
// ablation-degree). Each extra replica adds one more ack per message to
// the sender's completion gate (r−1 total), the protocol's only
// r-dependent cost in a failure-free run.
func RunDegreeSweep(s Scale) (Sweep, error) {
	rows, err := workloadSweep("degree sweep", 3, Workload{"CG", s.Ranks, func(c *mpi.Comm) apps.Result {
		return apps.CG(c, apps.CGParams{N: 512 * s.Factor, Iters: 16 * s.Factor, Work: 8000})
	}}, []point{
		{label: "1", cfg: cluster.Config{Protocol: cluster.Native, Replication: 1, Timeout: 5 * time.Minute}},
		{label: "2", cfg: cluster.Config{Protocol: cluster.SDR, Replication: 2, Timeout: 5 * time.Minute}},
		{label: "3", cfg: cluster.Config{Protocol: cluster.SDR, Replication: 3, Timeout: 5 * time.Minute}},
	})
	return Sweep{"Ablation — replication degree (CG proxy; acks per message = r−1)", "r", rows}, err
}

// PartialSweepQuarters are the partial-replication sweep's points:
// quarter/4 of the ranks replicated, from the native baseline (0) to full
// dual replication (4).
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
// 100 % of ranks replicated at a fixed logical rank count (experiment
// ablation-partial), labelled replicated/total ranks: the paper's route
// past full replication's 50 % efficiency ceiling (§5, Elliott et al.
// [6]), which pays processes, messages and acks only where r > 1.
func RunPartialSweep(s Scale) (Sweep, error) {
	n := s.Ranks
	var pts []point
	for _, quarter := range PartialSweepQuarters {
		proto, unrep := PartialSweepPoint(n, quarter)
		pts = append(pts, point{label: fmt.Sprintf("%d/%d", n*quarter/4, n),
			cfg: cluster.Config{Protocol: proto, Timeout: 5 * time.Minute, UnreplicatedRanks: unrep}})
	}
	rows, err := workloadSweep("partial sweep", 1, Workload{"CG", n, func(c *mpi.Comm) apps.Result {
		return apps.CG(c, apps.CGParams{N: 1024 * s.Factor, Iters: 15 * s.Factor, Work: 3000})
	}}, pts)
	return Sweep{"Partial replication ablation (CG proxy; §5 outlook / MR-MPI feature)", "replicated", rows}, err
}

// RunCoalesceAblation runs one windowed neighbor exchange natively and
// under SDR with discrete and with coalesced acks (experiment
// ablation-coalesce). Discrete acking pays one KindAck per (message,
// replica); coalescing batches the acks a receiver owes each replica into
// single messages, so acks/app collapses while the application traffic
// and results are identical.
func RunCoalesceAblation(s Scale) (Sweep, error) {
	body := coalesceExchange(8, 30*s.Factor, 256)
	rows, err := sweep("coalesce ablation", 1, []point{
		{"native", cluster.Config{Ranks: s.Ranks, Protocol: cluster.Native, Timeout: 2 * time.Minute}, body},
		{"sdr-discrete", cluster.Config{Ranks: s.Ranks, Protocol: cluster.SDR, NoAckCoalesce: true, Timeout: 2 * time.Minute}, body},
		{"sdr-coalesced", cluster.Config{Ranks: s.Ranks, Protocol: cluster.SDR, Timeout: 2 * time.Minute}, body},
	})
	return Sweep{"Ablation — ack coalescing on a windowed neighbor exchange (SDR, r=2)", "config", rows}, err
}

// coalesceExchange is a windowed neighbor exchange: every rank exchanges
// a window of messages with its ring neighbors each iteration — the burst
// pattern stencil and pipeline codes produce, and the one coalescing is
// built for.
func coalesceExchange(window, iters, size int) func(c *mpi.Comm) float64 {
	return func(c *mpi.Comm) float64 {
		n := c.Size()
		right := mpi.Rank((int(c.Rank()) + 1) % n)
		left := mpi.Rank((int(c.Rank()) + n - 1) % n)
		out := make([]byte, size)
		inR := make([]byte, size)
		inL := make([]byte, size)
		for it := 0; it < iters; it++ {
			reqs := make([]*mpi.Request, 0, 4*window)
			for w := 0; w < window; w++ {
				reqs = append(reqs,
					c.Irecv(left, w, inL),
					c.Irecv(right, window+w, inR))
			}
			for w := 0; w < window; w++ {
				reqs = append(reqs,
					c.Isend(right, w, out),
					c.Isend(left, window+w, out))
			}
			mpi.Waitall(reqs...)
		}
		return 0
	}
}

// RunSDCDemo injects one corruption into a replicated exchange and
// reports detection (experiment sdc).
func RunSDCDemo() (detected int, err error) {
	app := func(env *cluster.Env) (any, error) {
		c := env.World
		buf := make([]byte, 64)
		for i := 0; i < 10; i++ {
			if c.Rank() == 1 {
				buf[0] = byte(i)
				c.Send(0, 0, buf)
			} else {
				c.Recv(1, 0, buf)
			}
		}
		c.Barrier()
		return nil, nil
	}
	rep := cluster.Run(cluster.Config{
		Ranks: 2, Protocol: cluster.SDR, SDC: true, Timeout: time.Minute,
		Corrupt: true, CorruptRank: 1, CorruptRep: 1, CorruptSeq: 4,
	}, app)
	if err := rep.FirstError(); err != nil {
		return 0, err
	}
	return rep.SDCDetected, nil
}
