package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/transport"
)

// Eager/rendezvous ablation: the same payload exchanged through the two
// wire protocols (by overriding the eager limit), native vs SDR. It
// isolates where the replication cost lands on each path — on the eager
// path the sender retains a payload copy until the acks arrive; on the
// rendezvous path the sender's completion already waits for the
// receiver's CTS, so the ack adds less on top (§3.2/§3.3).

// EagerRow is one line of the eager/rendezvous ablation.
type EagerRow struct {
	Mode        string // "eager" or "rendezvous"
	Native      time.Duration
	SDR         time.Duration
	OverheadPct float64
}

// RunEagerAblation ping-pongs `rounds` messages of `size` bytes under
// both wire protocols, native vs SDR (median of reps).
func RunEagerAblation(size, rounds, reps int) ([]EagerRow, error) {
	modes := []struct {
		name  string
		limit int // EagerLimit override: above size → eager; 1 → rendezvous
	}{
		{"eager", size * 2},
		{"rendezvous", 1},
	}
	// A coarse delay model (50 µs hops, IB-20G bandwidth) makes the
	// modelled wire time dominate goroutine-scheduling noise, so the
	// overheads reflect protocol hops and ack placement rather than
	// simulation-host contention.
	delay := &transport.DelayModel{Latency: 50 * time.Microsecond, BytesPerSec: 1.6e9}
	var rows []EagerRow
	for _, m := range modes {
		var per [2]time.Duration // native, sdr
		for i, proto := range []cluster.Protocol{cluster.Native, cluster.SDR} {
			d, _, _, err := timedRun(cluster.Config{
				Ranks: 2, Protocol: proto, EagerLimit: m.limit, Timeout: 2 * time.Minute, Delay: delay,
			}, reps, pingPong(size, rounds))
			if err != nil {
				return nil, fmt.Errorf("eager ablation %s/%s: %w", m.name, proto, err)
			}
			per[i] = d
		}
		rows = append(rows, EagerRow{
			Mode:        m.name,
			Native:      per[0],
			SDR:         per[1],
			OverheadPct: (per[1].Seconds() - per[0].Seconds()) / per[0].Seconds() * 100,
		})
	}
	return rows, nil
}

// RenderEager prints the ablation table.
func RenderEager(w io.Writer, size, rounds int, rows []EagerRow) {
	fmt.Fprintf(w, "Ablation — eager vs rendezvous wire protocol (%d B × %d round trips)\n", size, rounds)
	fmt.Fprintf(w, "%-12s %12s %12s %14s\n", "", "native", "SDR-MPI", "overhead (%)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %12v %12v %14.2f\n", r.Mode, r.Native.Round(time.Microsecond),
			r.SDR.Round(time.Microsecond), r.OverheadPct)
	}
}
