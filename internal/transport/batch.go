package transport

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Outbound batching for the socket wire (PeerWire).
//
// Deliver no longer pays a syscall per message: frames are staged per
// ordered (source, destination) pair and emitted as one net.Buffers
// vectored write (writev) at a flush point. The flush triggers mirror the
// ones ack coalescing already uses through Engine.OnFlush:
//
//   - batch-full: staging the frame that crosses batchMaxFrames or
//     batchMaxBytes flushes the batch inline (bounded memory, and a burst
//     still goes out in large writes);
//   - age: Wire.Flush(src, force=false) — called from Engine.Progress —
//     flushes batches older than batchMaxAge;
//   - pre-block: Wire.Flush(src, force=true) — called before an engine
//     blocks in WaitUntil/Request.Wait — flushes everything staged, so a
//     process never sleeps on bytes a peer needs;
//   - backstop: a Deliver that leaves its frame staged arms the wire's
//     one-shot backstop timer (unless it is already armed), and the wire's
//     flusher goroutine force-flushes everything when it fires, flushTick
//     later. Callers that drive Endpoint.Send without an engine loop
//     (tests, drain loops) stay live without an explicit Flush call, and a
//     wire with nothing staged never wakes.
//
// Ownership: a staged batch slice holds exactly one reference to each
// message; the flush that empties it is the one ownership handoff for every
// element — each frame is either serialized and then released, or dropped
// (dead peer, unreachable peer, write failure) and released, exactly once.
//
// The thresholds are variables only so the in-package FIFO property test
// can shrink them; nothing else writes them.
var (
	batchMaxFrames = 64
	batchMaxBytes  = 256 << 10
	batchMaxAge    = 200 * time.Microsecond
)

// flushTick is the longest a staged frame waits when nobody else flushes
// it: the delay from the Deliver that arms the backstop timer to its fire.
// It is not a period; a wire with nothing staged arms nothing.
const flushTick = 500 * time.Microsecond

// link is the outbound side of one ordered (hosted source, destination)
// pair: the staged batch plus the stream it flushes onto — the cached
// connection, or the shared-memory ring when rendezvous negotiated one.
// The mutex is held across the vectored write that empties the batch:
// staging and flushing serialize per pair, which is what preserves per
// ordered-pair FIFO across flush boundaries. The atomics are what the
// control plane (MarkDead, Revive, Close) flips without waiting for a
// flush in progress, and what Deliver/Flush read without any wire-wide
// lock.
type link struct {
	// sdr:lockrank batch < peer
	// sdr:lockrank batch < conn
	mu     sync.Mutex
	frames []*Message  // guarded by mu
	bytes  int         // guarded by mu
	since  int64       // guarded by mu; monotonic ns when the oldest staged frame arrived
	wr     *ringWriter // guarded by mu; opened by the pair's first ring flush

	tc   atomic.Pointer[tcpConn] // cached connection, dialed on first flush
	dead atomic.Bool             // destination declared dead by the control plane
	// ring selects the ring path for the pair: set for colocated peers at
	// SetRingPeers time, permanently cleared on death/revive or any ring
	// failure (open failure, stalled or interrupted push).
	ring atomic.Bool
}

// tcpConn is one established ordered-pair stream. The scratch is the
// per-connection vectored-write assembly area, guarded by mu together
// with the socket itself.
type tcpConn struct {
	mu      sync.Mutex // sdr:lockrank conn
	c       net.Conn
	scratch batchScratch // guarded by mu
}

// processStart anchors the links' monotonic staging clock: an int64 of
// nanoseconds since it, not a time.Time, because a wire holds one link per
// hosted source and destination and a 128-wire mesh holds 16k of them.
var processStart = time.Now()

func monoNow() int64 { return int64(time.Since(processStart)) }

// stageLocked appends m and reports whether the batch is now due for an
// inline flush. Caller holds l.mu.
func (l *link) stageLocked(m *Message) bool {
	if len(l.frames) == 0 {
		l.since = monoNow()
	}
	l.frames = append(l.frames, m)
	l.bytes += wireHeaderLen + len(m.Data)
	return len(l.frames) >= batchMaxFrames || l.bytes >= batchMaxBytes
}

// takeLocked empties the batch, returning the staged frames. The returned
// slice aliases the batch's storage, which the next stageLocked reuses;
// the caller must finish with it (serialize or drop every element) before
// releasing l.mu. Caller holds l.mu.
func (l *link) takeLocked() []*Message {
	frames := l.frames
	l.frames = l.frames[:0]
	l.bytes = 0
	return frames
}

// dueLocked reports whether the batch has frames old enough for a
// non-forced flush. Caller holds l.mu.
func (l *link) dueLocked(force bool) bool {
	if len(l.frames) == 0 {
		return false
	}
	return force || monoNow()-l.since >= int64(batchMaxAge)
}

// batchScratch is the reusable assembly area for one connection's vectored
// writes: a header arena and the net.Buffers segment list. One scratch per
// connection (guarded by the batch/conn lock) keeps flushes allocation-free
// in steady state.
type batchScratch struct {
	hdrs []byte
	bufs net.Buffers
}

// build assembles the vectored write for frames: one header segment per
// frame, followed by its payload segment when non-empty. The returned
// buffers alias the scratch arena and the frames' payloads — valid until
// the next build call — and net.Buffers.WriteTo consumes the slice it is
// invoked on, so the segment list is rebuilt here on every flush. The
// second result is the total byte count.
func (s *batchScratch) build(frames []*Message) (net.Buffers, int) {
	need := len(frames) * wireHeaderLen
	if cap(s.hdrs) < need {
		s.hdrs = make([]byte, need)
	}
	hdrs := s.hdrs[:need]
	bufs := s.bufs[:0]
	total := 0
	for i, m := range frames {
		hd := hdrs[i*wireHeaderLen : (i+1)*wireHeaderLen]
		putMessageHeader(hd, m)
		bufs = append(bufs, hd)
		if len(m.Data) > 0 {
			bufs = append(bufs, m.Data)
		}
		total += wireHeaderLen + len(m.Data)
	}
	s.bufs = bufs
	return bufs, total
}

// freeFrames releases every staged frame after a successful serialization —
// the single ownership handoff for the batch's elements.
func freeFrames(frames []*Message) {
	for i, m := range frames {
		FreeMessage(m)
		frames[i] = nil
	}
}

// dropFrames fail-stop-drops a batch: every frame is counted against the
// reason-labeled drop counter and released. The bytes fall off the wire.
func dropFrames(frames []*Message, reason *obs.Counter) {
	if len(frames) == 0 {
		return
	}
	reason.Add(uint64(len(frames)))
	freeFrames(frames)
}
