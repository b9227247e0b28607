package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// Fig2Result compares anonymous-reception handling with and without
// send-determinism (the paper's Figure 2): the leader-based scheme adds a
// decision message to every wildcard reception's critical path and delays
// the followers' receive posting; the send-deterministic scheme decides
// locally.
type Fig2Result struct {
	// PerRecvUS is one ANY_SOURCE reception round's mean wall time, in µs.
	PerRecvUS map[cluster.Protocol]float64
	// CtlMsgs counts protocol control messages (leader decisions).
	CtlMsgs map[cluster.Protocol]uint64
	// MaxUnexpected is the peak unexpected-queue depth observed at a
	// replica of the receiving rank (grows when receives post late).
	MaxUnexpected map[cluster.Protocol]int
}

// RunFig2 measures k wildcard reception rounds between two ranks under
// SDR and the leader baseline.
func RunFig2(k int) (*Fig2Result, error) {
	pts := protocols(2*time.Minute, cluster.SDR, cluster.Leader)
	for i := range pts {
		// The extra decision hop only costs something on a network with
		// latency; use the paper's IB-20G model.
		pts[i].cfg.Ranks, pts[i].cfg.Delay = 2, transport.IB20G()
		pts[i].body = func(c *mpi.Comm) float64 {
			buf := make([]byte, 64)
			for round := 0; round < k; round++ {
				if c.Rank() == 0 {
					// The Figure 2 pattern: an anonymous reception
					// answered by an ack-carrying reply.
					c.Recv(mpi.AnySource, 0, buf)
					c.Send(1, 1, buf[:8])
				} else {
					c.Send(0, 0, buf)
					c.Recv(0, 1, buf[:8])
				}
			}
			return float64(c.Proc().Engine().UnexpectedHighWater())
		}
	}
	rows, err := sweep("fig2", 1, pts)
	if err != nil {
		return nil, err
	}
	out := &Fig2Result{map[cluster.Protocol]float64{}, map[cluster.Protocol]uint64{}, map[cluster.Protocol]int{}}
	for _, r := range rows {
		// Each replica of the receiving rank reports its own high water:
		// the leader's follower is the one whose receives post late.
		maxU := 0
		for _, p := range r.Report.Procs {
			if u := int(p.Result.(timed).v); p.Rank == 0 && u > maxU {
				maxU = u
			}
		}
		proto := cluster.Protocol(r.Label)
		out.PerRecvUS[proto] = r.Elapsed.Seconds() * 1e6 / float64(k)
		out.CtlMsgs[proto] = r.Stats.Msgs[transport.KindCtl]
		out.MaxUnexpected[proto] = maxU
	}
	return out, nil
}

// Render writes the comparison.
func (r *Fig2Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 2 — ANY_SOURCE handling: leader-based vs send-deterministic")
	fmt.Fprintf(w, "%-10s %16s %14s %16s\n", "protocol", "per-recv (usec)", "ctl msgs", "max unexpected")
	for _, proto := range []cluster.Protocol{cluster.SDR, cluster.Leader} {
		fmt.Fprintf(w, "%-10s %16.2f %14d %16d\n",
			proto, r.PerRecvUS[proto], r.CtlMsgs[proto], r.MaxUnexpected[proto])
	}
}
