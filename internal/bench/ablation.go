package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/mpi"
)

// AblationRow compares protocols on one workload: wall time plus the
// message-complexity counters (§2.4's O(q·r) vs O(q·r²)).
type AblationRow struct {
	Protocol cluster.Protocol
	Elapsed  time.Duration
	AppMsgs  uint64
	AckMsgs  uint64
	CtlMsgs  uint64
}

// RunMirrorAblation runs the CG proxy under native, SDR (parallel) and
// mirror, reporting time and traffic (experiment abl-mirror).
func RunMirrorAblation(s Scale) ([]AblationRow, error) {
	return runAblation("ablation", Workload{"CG", s.Ranks, func(c *mpi.Comm) apps.Result {
		return apps.CG(c, apps.CGParams{N: 2048 * s.Factor, Iters: 20 * s.Factor, Work: 2})
	}}, cluster.Native, cluster.SDR, cluster.Mirror)
}

// RunLeaderAblation runs the ANY_SOURCE-heavy HPCCG proxy under SDR and
// the leader baseline (experiment abl-leader): the claim is that the
// leader pays for every wildcard reception while SDR does not (§3.1,
// §4.4).
func RunLeaderAblation(s Scale) ([]AblationRow, error) {
	return runAblation("leader ablation", Workload{"HPCCG", s.Ranks, func(c *mpi.Comm) apps.Result {
		return apps.HPCCG(c, apps.HPCCGParams{NX: 24, NY: 24, NZ: 6 * s.Factor, Iters: 15 * s.Factor, Work: 2})
	}}, cluster.Native, cluster.SDR, cluster.Leader)
}

// runAblation times one run of w under each protocol and reads its
// traffic counters.
func runAblation(name string, w Workload, protos ...cluster.Protocol) ([]AblationRow, error) {
	var rows []AblationRow
	for _, proto := range protos {
		d, _, rep, err := timedRun(cluster.Config{Ranks: w.Ranks, Protocol: proto, Timeout: 5 * time.Minute}, 1, w.checksum)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", name, proto, err)
		}
		rows = append(rows, AblationRow{
			Protocol: proto,
			Elapsed:  d,
			AppMsgs:  rep.Stats.AppMsgs(),
			AckMsgs:  rep.Stats.AckMsgs(),
			CtlMsgs:  rep.Stats.Msgs[6],
		})
	}
	return rows, nil
}

// RenderAblation prints ablation rows.
func RenderAblation(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s\n", "protocol", "time (s)", "app msgs", "acks", "ctl msgs")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12.3f %12d %12d %12d\n",
			r.Protocol, r.Elapsed.Seconds(), r.AppMsgs, r.AckMsgs, r.CtlMsgs)
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
