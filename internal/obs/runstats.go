package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// RunStats is the machine-readable end-of-run report the distributed
// coordinator emits: its own counters plus the /metrics scrape of every
// worker still alive when the epoch completed. Schema is versioned so
// downstream tooling can evolve.
type RunStats struct {
	Schema      string  `json:"schema"` // "sdr.runstats/1"
	Protocol    string  `json:"protocol"`
	Ranks       int     `json:"ranks"`
	Procs       int     `json:"procs"`
	Restarts    int     `json:"restarts"`
	Replays     int     `json:"replays"`
	RestartWave int     `json:"restart_wave"`
	ReplayWave  int     `json:"replay_wave"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	// EpochsSec is the wall-clock duration of every epoch, in order: one
	// entry for a clean run, one extra per rollback restart.
	EpochsSec []float64 `json:"epochs_sec"`
	// Coordinator is the coordinator process's own sdr_cluster_* series.
	Coordinator map[string]float64 `json:"coordinator,omitempty"`
	Workers     []WorkerStats      `json:"workers"`
}

// WorkerStats is one worker's scrape outcome.
type WorkerStats struct {
	Proc int    `json:"proc"`
	Rank int    `json:"rank"`
	Rep  int    `json:"rep"`
	Addr string `json:"addr"` // /metrics address, as published via hello
	// Scraped reports whether the end-of-run scrape succeeded; Err carries
	// the failure otherwise.
	Scraped bool               `json:"scraped"`
	Err     string             `json:"err,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// NewRunStats stamps the schema version.
func NewRunStats() *RunStats {
	return &RunStats{Schema: "sdr.runstats/1", RestartWave: -1, ReplayWave: -1}
}

// JSON renders the stats as one compact JSON document.
func (rs *RunStats) JSON() ([]byte, error) { return json.Marshal(rs) }

// WriteBlock prints the human-readable end-of-run stats block: one line
// per worker with the load-bearing counters, then coordinator totals.
func (rs *RunStats) WriteBlock(w io.Writer) {
	fmt.Fprintf(w, "observability (%d workers scraped):\n", len(rs.Workers))
	for _, ws := range rs.Workers {
		if !ws.Scraped {
			fmt.Fprintf(w, "  r%d.%d proc %d @%s: scrape failed: %s\n", ws.Rank, ws.Rep, ws.Proc, ws.Addr, ws.Err)
			continue
		}
		app := SumByName(ws.Metrics, "sdr_core_app_msgs_total")
		acks := SumByName(ws.Metrics, "sdr_core_ack_msgs_total")
		coal := SumByName(ws.Metrics, "sdr_core_acks_coalesced_total")
		subs := SumByName(ws.Metrics, "sdr_core_substitutions_total")
		replayed := SumByName(ws.Metrics, "sdr_core_replayed_msgs_total")
		in := SumByName(ws.Metrics, `sdr_transport_bytes_total{dir="in"}`)
		out := SumByName(ws.Metrics, `sdr_transport_bytes_total{dir="out"}`)
		hits := SumByName(ws.Metrics, "sdr_transport_pool_hits_total")
		misses := SumByName(ws.Metrics, "sdr_transport_pool_misses_total")
		hitRate := 0.0
		if hits+misses > 0 {
			hitRate = hits / (hits + misses)
		}
		fmt.Fprintf(w, "  r%d.%d proc %d: app=%.0f acks=%.0f coalesced=%.0f subs=%.0f replayed=%.0f in=%.0fB out=%.0fB pool-hit=%.0f%%\n",
			ws.Rank, ws.Rep, ws.Proc, app, acks, coal, subs, replayed, in, out, 100*hitRate)
	}
	if len(rs.Coordinator) > 0 {
		keys := make([]string, 0, len(rs.Coordinator))
		for k := range rs.Coordinator {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "  coordinator:")
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%g", k, rs.Coordinator[k])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  epochs=%d restarts=%d replays=%d elapsed=%.2fs\n",
		len(rs.EpochsSec), rs.Restarts, rs.Replays, rs.ElapsedSec)
}
