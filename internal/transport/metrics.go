package transport

import "repro/internal/obs"

// Wire-level observability (sdr_transport_*), recorded into the
// process-wide obs.Default registry. The children are resolved once at
// init so the hot paths pay a single atomic add.
var (
	mPoolHitBuf = obs.Default.CounterWith("sdr_transport_pool_hits_total",
		"pooled allocations served from a sync.Pool", []string{"pool"}, []string{"buf"})
	mPoolMissBuf = obs.Default.CounterWith("sdr_transport_pool_misses_total",
		"pooled allocations that fell through to the heap", []string{"pool"}, []string{"buf"})
	mPoolHitMsg = obs.Default.CounterWith("sdr_transport_pool_hits_total",
		"pooled allocations served from a sync.Pool", []string{"pool"}, []string{"msg"})
	mPoolMissMsg = obs.Default.CounterWith("sdr_transport_pool_misses_total",
		"pooled allocations that fell through to the heap", []string{"pool"}, []string{"msg"})
	// poolCells is each owner's cells of the four pool counters, resolved
	// once: a get indexes it by owner instead of asking the counter. Owners
	// past its length wrap, as they do onto the counters' own cells.
	poolCells = func() (t [64]struct{ bufHit, bufMiss, msgHit, msgMiss *obs.Cell }) {
		for i := range t {
			t[i].bufHit, t[i].bufMiss = mPoolHitBuf.Cell(i), mPoolMissBuf.Cell(i)
			t[i].msgHit, t[i].msgMiss = mPoolHitMsg.Cell(i), mPoolMissMsg.Cell(i)
		}
		return t
	}()
	mBytesIn = obs.Default.CounterWith("sdr_transport_bytes_total",
		"peer-wire bytes by direction", []string{"dir"}, []string{"in"})
	mBytesOut = obs.Default.CounterWith("sdr_transport_bytes_total",
		"peer-wire bytes by direction", []string{"dir"}, []string{"out"})
	// Rendezvous payloads the socket reader wrote straight into the posted
	// receive buffer; their bytes count in bytes_total{dir="in"} like any
	// other frame's.
	mLandedFrames = obs.Default.Counter("sdr_transport_landed_frames_total",
		"rendezvous payload frames read from the socket into the posted receive buffer")
	mRedials = obs.Default.Counter("sdr_transport_redials_total",
		"peer connections dropped mid-write and redialed")

	// Fail-stop drops, split by reason so chaos runs can tell an expected
	// "dead peer" drop from a frame genuinely lost to the wire:
	//   dead        — the control plane declared the peer dead before the
	//                 frame was staged or flushed;
	//   unreachable — the bounded dial budget to a live-as-far-as-we-know
	//                 peer was exhausted (no address, dial failure);
	//   write       — an established stream failed mid-batch and the redial
	//                 retry failed too: the frames fell off the wire;
	//   closed      — the frame was staged or still pending when the wire
	//                 shut down: nothing is left to emit it.
	mDroppedDead = obs.Default.CounterWith("sdr_transport_dropped_total",
		"messages fail-stop-dropped, by reason", []string{"reason"}, []string{"dead"})
	mDroppedUnreachable = obs.Default.CounterWith("sdr_transport_dropped_total",
		"messages fail-stop-dropped, by reason", []string{"reason"}, []string{"unreachable"})
	mDroppedWrite = obs.Default.CounterWith("sdr_transport_dropped_total",
		"messages fail-stop-dropped, by reason", []string{"reason"}, []string{"write"})
	mDroppedClosed = obs.Default.CounterWith("sdr_transport_dropped_total",
		"messages fail-stop-dropped, by reason", []string{"reason"}, []string{"closed"})

	// Batched-wire flush accounting: frames-per-flush is
	// flush_frames_total / flushes_total, and bytes per flush syscall is
	// bytes_total{dir=out} / flushes_total.
	mFlushes = obs.Default.Counter("sdr_transport_flushes_total",
		"vectored flush writes (one writev or ring push per batch)")
	mFlushFrames = obs.Default.Counter("sdr_transport_flush_frames_total",
		"frames emitted across all batch flushes")

	// The flush backstop (PeerWire.flushLoop): how often its one-shot timer
	// fired, and how many frames those fires shipped — frames whose stager
	// neither filled a batch nor flushed before it went quiet. Fires per
	// second on an idle worker is 0.
	mBackstopFires = obs.Default.Counter("sdr_transport_backstop_fires_total",
		"times the socket wire's flush backstop timer fired")
	mBackstopFrames = obs.Default.Counter("sdr_transport_backstop_frames_total",
		"frames flush backstop fires took off the links (written or dropped)")

	// Inbound-path scaling gauge: the shard count the last network built
	// gave the endpoints it hosts (sized from the world, see shardCountFor).
	gQueueShards = obs.Default.Gauge("sdr_transport_queue_shards",
		"inbound queue shards per hosted endpoint (next power of two over the peer count, capped)")

	// Colocated ring transport traffic (frames that bypassed loopback TCP).
	mRingFramesOut = obs.Default.CounterWith("sdr_transport_ring_frames_total",
		"frames moved over colocated shared-memory rings, by direction",
		[]string{"dir"}, []string{"out"})
	mRingFramesIn = obs.Default.CounterWith("sdr_transport_ring_frames_total",
		"frames moved over colocated shared-memory rings, by direction",
		[]string{"dir"}, []string{"in"})

	// The ring scanner's doorbell. A scanner blocked on its bell makes one
	// pass per bell or backstop period, so passes/frames says what a frame
	// costs to find; full waits count the producer-side stalls that still
	// sleep-poll (ringBackoff), the evidence for or against giving producers
	// a bell of their own.
	mRingParks = obs.Default.Counter("sdr_transport_ring_parks_total",
		"times a ring scanner blocked on its doorbell")
	mRingBells = obs.Default.Counter("sdr_transport_ring_bells_total",
		"doorbell bytes written by ring producers")
	mRingScanPasses = obs.Default.Counter("sdr_transport_ring_scan_passes_total",
		"poll passes a ring scanner made over its inbound rings")
	mRingFullWaits = obs.Default.Counter("sdr_transport_ring_full_waits_total",
		"times a ring producer found its ring full and had to wait for the consumer")
)
