package main

import (
	"strings"

	"repro/internal/obs"
)

// Every read of obs.Default, and every series name the benchmark knows,
// is in this file. A series that a later change renames or removes makes
// the metrics built on it disappear from the output — it never reads as a
// zero.

const (
	serFlushes      = "sdr_transport_flushes_total"
	serFlushFrames  = "sdr_transport_flush_frames_total"
	serBytesOut     = `sdr_transport_bytes_total{dir="out"}`
	serRingOut      = `sdr_transport_ring_frames_total{dir="out"}`
	serRedials      = "sdr_transport_redials_total"
	serPoolHits     = "sdr_transport_pool_hits_total"
	serPoolMisses   = "sdr_transport_pool_misses_total"
	serDropped      = "sdr_transport_dropped_total"
	serCoreApp      = "sdr_core_app_msgs_total"
	serCoreAcks     = "sdr_core_ack_msgs_total"
	serCoreCoalesce = "sdr_core_acks_coalesced_total"
	serSubst        = "sdr_core_substitutions_total"
	serReplayed     = "sdr_core_replayed_msgs_total"
	serMsglogBytes  = "sdr_core_msglog_bytes"
	serCkptBytes    = "sdr_ckpt_bytes_written_total"
	serCkptPruned   = "sdr_ckpt_pruned_total"
	serCkptCommits  = "sdr_ckpt_waves_committed_total"
)

// counterSnap is one reading of the process-global registry.
type counterSnap map[string]float64

func snapCounters() counterSnap { return counterSnap(obs.Default.Snapshot()) }

// family sums every child of a labelled family (or reads the single
// unlabelled series); ok is false when no such series exists.
func (s counterSnap) family(name string) (v float64, ok bool) {
	for k, x := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			v += x
			ok = true
		}
	}
	return v, ok
}

// counterDelta is what the layers counted between two readings.
type counterDelta struct{ a, b counterSnap }

func (d counterDelta) get(name string) (float64, bool) {
	b, ok := d.b.family(name)
	if !ok {
		return 0, false
	}
	a, _ := d.a.family(name)
	return b - a, true
}

// ratio is num/den over the interval; absent when either series is
// missing or den did not move.
func (d counterDelta) ratio(num, den string) (float64, bool) {
	n, ok1 := d.get(num)
	m, ok2 := d.get(den)
	if !ok1 || !ok2 || m == 0 {
		return 0, false
	}
	return n / m, true
}

// layerCounts turns the interval's counter movement into the count-type
// per-layer metrics. The transport's message counts come from the run's
// own Stats and are set by the caller.
func (d counterDelta) layerCounts(out *repOut) {
	put := func(metric, series string) {
		if v, ok := d.get(series); ok {
			out.set(metric, v)
		}
	}
	putRatio := func(metric, num, den string) {
		if v, ok := d.ratio(num, den); ok {
			out.set(metric, v)
		}
	}
	put("transport.bytes_out", serBytesOut)
	put("transport.flushes", serFlushes)
	putRatio("transport.frames_per_flush", serFlushFrames, serFlushes)
	putRatio("transport.bytes_per_flush", serBytesOut, serFlushes)
	putRatio("transport.ring_frame_share", serRingOut, serFlushFrames)
	put("transport.dropped_msgs", serDropped)
	put("transport.redials", serRedials)
	if h, ok1 := d.get(serPoolHits); ok1 {
		if m, ok2 := d.get(serPoolMisses); ok2 && h+m > 0 {
			out.set("transport.pool_hit_ratio", h/(h+m))
		}
	}
	putRatio("core.acks_per_app_msg", serCoreAcks, serCoreApp)
	if recs, ok1 := d.get(serCoreCoalesce); ok1 {
		// Records that rode in a batched ack, over records plus ack wire
		// messages: a lower bound on the coalesced share, since the
		// batched messages themselves are counted below the line too.
		if msgs, ok2 := d.get(serCoreAcks); ok2 && recs+msgs > 0 {
			out.set("core.acks_coalesced_share", recs/(recs+msgs))
		}
	}
	put("core.substitutions", serSubst)
	put("core.replayed_msgs", serReplayed)
	put("ckpt.bytes_written", serCkptBytes)
	put("ckpt.waves_committed", serCkptCommits)
	put("ckpt.pruned", serCkptPruned)
}

// msglogBytes reads the sender-log gauge; ok is false when it is gone.
func msglogBytes() (float64, bool) {
	v, ok := snapCounters()[serMsglogBytes]
	return v, ok
}
