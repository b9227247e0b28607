package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// Ack-coalescing ablation (experiment ablation-coalesce): the same
// windowed neighbor exchange under SDR with discrete acks and with
// coalescing, plus the native baseline for scale. The quantity of
// interest is the AckMsgs/AppMsgs ratio — discrete acking pays one
// KindAck per (message, replica); coalescing batches the acks a receiver
// owes each replica into single messages, so the ratio collapses while
// the application traffic and results are identical.

// CoalesceRow is one configuration of the coalescing ablation.
type CoalesceRow struct {
	Label   string
	Elapsed time.Duration
	AppMsgs uint64
	AckMsgs uint64
}

// AckRatio is ack messages per application message.
func (r CoalesceRow) AckRatio() float64 {
	if r.AppMsgs == 0 {
		return 0
	}
	return float64(r.AckMsgs) / float64(r.AppMsgs)
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

// RunCoalesceAblation measures the three configurations.
func RunCoalesceAblation(s Scale) ([]CoalesceRow, error) {
	window, iters, size := 8, 30*s.Factor, 256
	configs := []struct {
		label string
		cfg   cluster.Config
	}{
		{"native", cluster.Config{Ranks: s.Ranks, Protocol: cluster.Native}},
		{"sdr-discrete", cluster.Config{Ranks: s.Ranks, Protocol: cluster.SDR, NoAckCoalesce: true}},
		{"sdr-coalesced", cluster.Config{Ranks: s.Ranks, Protocol: cluster.SDR}},
	}
	var rows []CoalesceRow
	for _, c := range configs {
		c.cfg.Timeout = 2 * time.Minute
		d, _, rep, err := timedRun(c.cfg, 1, coalesceExchange(window, iters, size))
		if err != nil {
			return nil, fmt.Errorf("coalesce ablation %s: %w", c.label, err)
		}
		rows = append(rows, CoalesceRow{
			Label:   c.label,
			Elapsed: d,
			AppMsgs: rep.Stats.AppMsgs(),
			AckMsgs: rep.Stats.AckMsgs(),
		})
	}
	return rows, nil
}

// RenderCoalesce prints the ablation table.
func RenderCoalesce(w io.Writer, rows []CoalesceRow) {
	fmt.Fprintln(w, "Ablation — ack coalescing on a windowed neighbor exchange (SDR, r=2)")
	fmt.Fprintf(w, "%-14s %10s %12s %12s %12s\n", "config", "time (s)", "app msgs", "ack msgs", "acks/app")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %10.3f %12d %12d %12.3f\n",
			r.Label, r.Elapsed.Seconds(), r.AppMsgs, r.AckMsgs, r.AckRatio())
	}
}
