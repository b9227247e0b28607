package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/mpi"
)

// Extended evaluation beyond the paper's Tables 1–2: three more NAS
// proxies spanning communication regimes the original five do not cover
// (LU: fine-grained pipelined wavefront; IS: Alltoallv-dominated; EP: near
// zero communication), a replication-degree sweep, and the runnable form
// of the paper's §2.1 claim that master-worker codes are not
// send-deterministic.

// ExtendedNASWorkloads returns the three additional proxies at the given
// scale, with Work values tuned to each kernel's character (EP almost all
// compute, LU many tiny messages).
func ExtendedNASWorkloads(s Scale) []Workload {
	// Work values follow the same rule as NASWorkloads: the simulated
	// compute (timer waits — see apps.compute) dominates, and the real
	// CPU work per rank is kept small so few-core simulation hosts do not
	// turn duplicated computation into fake protocol overhead.
	f := s.Factor
	return []Workload{
		{"LU", s.Ranks, func(c *mpi.Comm) apps.Result {
			return apps.LU(c, apps.LUParams{NX: 16, NZ: 8 * f, Iters: 4 * f, Work: 3000})
		}},
		{"IS", s.Ranks, func(c *mpi.Comm) apps.Result {
			return apps.IS(c, apps.ISParams{KeysPerRank: 1024 * f, MaxKey: 1 << 16, Iters: 6 * f, Work: 30000})
		}},
		{"EP", s.Ranks, func(c *mpi.Comm) apps.Result {
			return apps.EP(c, apps.EPParams{Pairs: 10000 * f, Work: 80000})
		}},
	}
}

// --- Replication-degree sweep -----------------------------------------------

// DegreeRow is one line of the replication-degree ablation: the same
// workload under increasing r. Each extra replica adds one more ack per
// message to the sender's completion gate (r−1 total), which is the
// protocol's only r-dependent cost in a failure-free run.
type DegreeRow struct {
	R           int
	Wall        time.Duration
	OverheadPct float64 // versus the native (r=1) run
	AckMsgs     uint64
	AppMsgs     uint64
}

// RunDegreeSweep measures the CG proxy at r = 1 (native), 2 and 3,
// reporting the median of three runs per degree.
func RunDegreeSweep(s Scale) ([]DegreeRow, error) {
	w := Workload{"CG", s.Ranks, func(c *mpi.Comm) apps.Result {
		return apps.CG(c, apps.CGParams{N: 512 * s.Factor, Iters: 16 * s.Factor, Work: 8000})
	}}
	var rows []DegreeRow
	var base float64
	for _, r := range []int{1, 2, 3} {
		proto := cluster.SDR
		if r == 1 {
			proto = cluster.Native
		}
		wall, _, rep, err := timedRun(cluster.Config{
			Ranks: w.Ranks, Protocol: proto, Replication: r, Timeout: 5 * time.Minute,
		}, 3, w.checksum)
		if err != nil {
			return nil, fmt.Errorf("degree sweep r=%d: %w", r, err)
		}
		row := DegreeRow{R: r, Wall: wall, AckMsgs: rep.Stats.AckMsgs(), AppMsgs: rep.Stats.AppMsgs()}
		if r == 1 {
			base = wall.Seconds()
		}
		row.OverheadPct = (wall.Seconds() - base) / base * 100
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderDegrees prints the replication-degree table.
func RenderDegrees(w io.Writer, rows []DegreeRow) {
	fmt.Fprintln(w, "Ablation — replication degree (CG proxy; acks per message = r−1)")
	fmt.Fprintf(w, "%3s %12s %14s %12s %12s\n", "r", "Wall (sec)", "Overhead (%)", "app msgs", "ack msgs")
	for _, r := range rows {
		fmt.Fprintf(w, "%3d %12.3f %14.2f %12d %12d\n", r.R, r.Wall.Seconds(), r.OverheadPct, r.AppMsgs, r.AckMsgs)
	}
}

// --- Send-determinism verdicts ----------------------------------------------

// DeterminismRow is one workload's verdict from the cross-replica send-
// sequence comparison.
type DeterminismRow struct {
	Name string
	// SendDeterministic reports whether every rank's replicas emitted
	// identical send sequences.
	SendDeterministic bool
	// Detail is the checker's divergence description (empty when
	// deterministic).
	Detail string
	// ChecksumsAgree reports whether the replicas' results matched —
	// demonstrating that output agreement does NOT imply
	// send-determinism.
	ChecksumsAgree bool
}

// RunDeterminismCheck executes representative workloads under dual
// replication with send tracing and classifies each: the paper's §2.1
// taxonomy (SPMD codes send-deterministic, master-worker not) as a
// measurement.
func RunDeterminismCheck(s Scale) ([]DeterminismRow, error) {
	type cand struct {
		name string
		app  cluster.AppFunc
	}
	cands := []cand{
		{"CG", func(env *cluster.Env) (any, error) {
			return apps.CG(env.World, apps.CGParams{N: 256 * s.Factor, Iters: 8, Work: 1}), nil
		}},
		{"HPCCG (ANY_SOURCE)", func(env *cluster.Env) (any, error) {
			return apps.HPCCG(env.World, apps.HPCCGParams{NX: 8, NY: 8, NZ: 4, Iters: 6, Work: 1}), nil
		}},
		{"Master-Worker", func(env *cluster.Env) (any, error) {
			rep := env.Rep
			return apps.MasterWorker(env.World, apps.MWParams{
				Tasks: 12, PerWorkerQuota: 4, Work: 200,
				ExtraDelay: func(task int) int { return ((task + rep*2) % 3) * 400 },
			}), nil
		}},
	}
	var rows []DeterminismRow
	for _, cd := range cands {
		rep := cluster.Run(cluster.Config{
			Ranks: 4, Protocol: cluster.SDR, Timeout: time.Minute,
			TraceSends: true, KeepEvents: 512,
		}, cd.app)
		if err := rep.FirstError(); err != nil {
			return nil, fmt.Errorf("determinism check %s: %w", cd.name, err)
		}
		row := DeterminismRow{Name: cd.name, SendDeterministic: true, ChecksumsAgree: true}
		for rank := 0; rank < 4; rank++ {
			var recs []*cluster.Recorder
			var sums []float64
			for _, p := range rep.Procs {
				if p.Rank != rank {
					continue
				}
				recs = append(recs, rep.Recorders[p.Proc])
				sums = append(sums, p.Result.(apps.Result).Checksum)
			}
			if err := cluster.CheckSendDeterminism(recs...); err != nil {
				row.SendDeterministic = false
				if row.Detail == "" {
					row.Detail = fmt.Sprintf("rank %d: %v", rank, err)
				}
			}
			for _, s := range sums[1:] {
				if s != sums[0] {
					row.ChecksumsAgree = false
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderDeterminism prints the verdict table.
func RenderDeterminism(w io.Writer, rows []DeterminismRow) {
	fmt.Fprintln(w, "Send-determinism verdicts (dual replication, cross-replica send-sequence comparison)")
	fmt.Fprintf(w, "%-22s %-18s %-16s %s\n", "", "send-determ.", "results agree", "divergence")
	for _, r := range rows {
		sd := "yes"
		if !r.SendDeterministic {
			sd = "NO"
		}
		ca := "yes"
		if !r.ChecksumsAgree {
			ca = "NO"
		}
		fmt.Fprintf(w, "%-22s %-18s %-16s %s\n", r.Name, sd, ca, r.Detail)
	}
}
