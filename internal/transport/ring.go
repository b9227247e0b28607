package transport

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

// Colocated shared-memory ring transport.
//
// When the rendezvous hello reveals that two workers share a host (and the
// coordinator provided a ring directory), the peer wire moves their
// traffic through a file-backed mmap ring instead of loopback TCP: one
// single-producer/single-consumer byte pipe per ordered pair, framing
// identical to the TCP wire (wire header + payload), cursors in the mapped
// header. The producer is the flushing side of the pair's staged batch
// (already serialized by the batch lock); the consumer is the wire's single
// ring-scan goroutine — so the SPSC discipline holds by construction.
//
// An idle consumer does not poll: it raises the parked word in the header of
// each of its inbound rings, polls them once more, and blocks on its
// doorbell — a FIFO beside the ring files, bell-<dst>, see bell_unix.go. A
// producer that publishes into a ring whose word it finds up takes it down
// (CAS 1→0, so one publish pays) and writes one byte to the FIFO. Raise then
// poll on one side, publish then look on the other: whichever comes second
// sees the first, so a frame is never left behind a blocked consumer.
//
// Failure model: rings never survive an incarnation change. A worker
// relaunched mid-epoch (localized replay) starts with rings disabled, and
// survivors permanently ban the pair once the control plane declares the
// peer dead — a producer killed mid-frame leaves a torn stream that only a
// fresh epoch (fresh ring directory) may reuse. A producer stalled on a
// full ring whose consumer stopped draining treats the frames as fallen
// off the wire after a bounded wait, exactly like the bounded dial budget
// on the TCP path. The doorbell adds no failure of its own, because the
// bell is a hint and the consumer's read deadline (ringBellBackstop) the
// guarantee: a word left up by a dead consumer costs its producers one
// failed write each (EPIPE, ignored) before the ban or the stall timeout
// takes the pair; a bell that cannot be rung (the FIFO will not open, or
// holds 64 KiB of unread bells) or that is lost (a producer killed between
// its CAS and its write) costs the frame behind it the backstop in latency,
// never the frame.
const (
	// ringMagic marks an initialized ring file ("SDRRING1").
	ringMagic = uint64(0x53445252494e4731)
	// ringHdrSize is the mapped control header (one cache line).
	ringHdrSize = 64
	// DefaultRingBytes is the default per-ordered-pair ring capacity.
	DefaultRingBytes = 256 << 10
	// ringStallTimeout bounds how long a producer waits on a full ring
	// that is not draining before dropping the batch (fail-stop).
	ringStallTimeout = 2 * time.Second
	// ringSpinPasses is how many empty poll passes, a Gosched apart, the
	// scanner makes before it raises the parked words.
	ringSpinPasses = 2
)

// ringBellBackstop is the read deadline of a scanner blocked on its doorbell:
// the longest a frame whose bell was lost waits. A variable only so tests can
// stretch it (to prove the bell woke the scanner) or shrink it; nothing else
// writes it.
var ringBellBackstop = 10 * time.Millisecond

// ringHdr is the control header at offset 0 of a mapped ring file. The
// cursors are free-running byte counts; tail-head is the committed-unread
// span. Both sides share the mapping, so every access is atomic: the
// tail store publishes the producer's data copy (release), the head store
// publishes consumption.
type ringHdr struct {
	magic  atomic.Uint64
	rcap   atomic.Uint64
	tail   atomic.Uint64 // producer cursor: total bytes written
	head   atomic.Uint64 // consumer cursor: total bytes read
	parked atomic.Uint32 // 1 = the consumer is blocked (or about to block) on its doorbell
	_      [ringHdrSize - 36]byte
}

// ringPipe is one mapped SPSC byte pipe. The mapping outlives the descriptor
// it was made from, which is closed as soon as the file is mapped.
type ringPipe struct {
	mem  []byte
	hdr  *ringHdr
	data []byte
	size uint64
	bell *bellRinger // producer side: the consumer's doorbell; nil on the consumer side
}

// openRing creates or attaches the ring file at path with the given data
// capacity. Creation races between producer and consumer are benign: both
// truncate to the same size and the header is initialized with CAS.
func openRing(path string, size int) (*ringPipe, error) {
	if size <= 0 {
		size = DefaultRingBytes
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o600)
	if err != nil {
		return nil, fmt.Errorf("transport: ring open: %w", err)
	}
	total := ringHdrSize + size
	if err := f.Truncate(int64(total)); err != nil {
		f.Close()
		return nil, fmt.Errorf("transport: ring truncate: %w", err)
	}
	mem, err := mapFile(f, total)
	f.Close()
	if err != nil {
		return nil, err
	}
	hdr := (*ringHdr)(unsafe.Pointer(&mem[0]))
	hdr.rcap.CompareAndSwap(0, uint64(size))
	hdr.magic.CompareAndSwap(0, ringMagic)
	if hdr.magic.Load() != ringMagic || hdr.rcap.Load() != uint64(size) {
		unmapFile(mem)
		return nil, fmt.Errorf("transport: ring %s header mismatch", path)
	}
	return &ringPipe{mem: mem, hdr: hdr, data: mem[ringHdrSize:total], size: uint64(size)}, nil
}

func (r *ringPipe) close() {
	if r == nil {
		return
	}
	unmapFile(r.mem)
	r.bell.close()
}

// ringBackoff is the idle policy of a producer waiting on a full ring: spin
// briefly, then sleep with growing granularity so a stalled ring costs
// microwatts, not a core.
func ringBackoff(idle *int) {
	*idle++
	switch {
	case *idle < 64:
		runtime.Gosched()
	case *idle < 1024:
		time.Sleep(20 * time.Microsecond)
	default:
		time.Sleep(time.Millisecond)
	}
}

// errRingStall reports a producer that gave up on a full, undrained ring.
var errRingStall = fmt.Errorf("transport: ring stalled beyond %v", ringStallTimeout)

// errRingClosed reports a producer interrupted by its wire shutting down.
var errRingClosed = fmt.Errorf("transport: ring closed mid-write")

// write copies p into the ring, blocking (bounded) while it is full.
// Frames larger than the ring capacity stream through in chunks as the
// consumer drains — which is why the bell is rung after every publish that
// finds the parked word up, not once per frame or batch: the chunk just
// published is what a blocked consumer must drain before the next one fits.
// A close on done (nil = never) aborts the wait immediately so a closing
// wire is not held hostage by a full ring. Single producer only.
func (r *ringPipe) write(p []byte, done <-chan struct{}) error {
	idle := 0
	var stall time.Time
	for len(p) > 0 {
		head := r.hdr.head.Load()
		tail := r.hdr.tail.Load()
		free := r.size - (tail - head)
		if free == 0 {
			select {
			case <-done:
				return errRingClosed
			default:
			}
			if stall.IsZero() {
				stall = time.Now()
				mRingFullWaits.Inc()
			} else if time.Since(stall) > ringStallTimeout {
				return errRingStall
			}
			ringBackoff(&idle)
			continue
		}
		stall = time.Time{}
		idle = 0
		n := uint64(len(p))
		if n > free {
			n = free
		}
		off := tail % r.size
		k := n
		if k > r.size-off {
			k = r.size - off
		}
		copy(r.data[off:off+k], p[:k])
		copy(r.data[0:n-k], p[k:n])
		r.hdr.tail.Store(tail + n) // publishes the copy above
		if r.hdr.parked.Load() != 0 && r.hdr.parked.CompareAndSwap(1, 0) {
			r.bell.ring()
		}
		p = p[n:]
	}
	return nil
}

// readAvail copies up to len(p) committed bytes out of the ring without
// blocking and returns how many were read (0 = ring empty). Single
// consumer only.
func (r *ringPipe) readAvail(p []byte) int {
	tail := r.hdr.tail.Load()
	head := r.hdr.head.Load()
	avail := tail - head
	if avail == 0 {
		return 0
	}
	n := uint64(len(p))
	if n > avail {
		n = avail
	}
	off := head % r.size
	k := n
	if k > r.size-off {
		k = r.size - off
	}
	copy(p[:k], r.data[off:off+k])
	copy(p[k:n], r.data[0:n-k])
	r.hdr.head.Store(head + n) // publishes consumption to the producer
	return int(n)
}

// ringWriter is the producer side of one ordered pair: frames staged for
// the pair are pushed through it at flush time, in staging order (the
// batch lock serializes flushes, preserving SPSC and FIFO). done is the
// owning wire's shutdown signal; a write parked on a full ring aborts
// when it closes.
type ringWriter struct {
	pipe *ringPipe
	done <-chan struct{}
	hdr  [wireHeaderLen]byte
}

func (w *ringWriter) writeFrame(m *Message) error {
	putMessageHeader(w.hdr[:], m)
	if err := w.pipe.write(w.hdr[:], w.done); err != nil {
		return err
	}
	if len(m.Data) > 0 {
		return w.pipe.write(m.Data, w.done)
	}
	return nil
}

// ringReader is the consumer side of one inbound ring: a resumable frame
// decoder over the non-blocking readAvail primitive, so one scan goroutine
// can multiplex every inbound ring without parking on any of them. Partial
// frames (header split across polls, payloads larger than the ring) carry
// over between polls in the reader's state.
type ringReader struct {
	pipe *ringPipe
	src  ProcID

	hdr  [wireHeaderLen]byte
	hgot int      // header bytes accumulated
	m    *Message // frame being filled (nil between frames)
	need int      // payload length of m
	fill int      // payload bytes accumulated
	bad  bool     // poisoned by a corrupt header; never read again
}

func newRingReader(path string, size int, src ProcID) (*ringReader, error) {
	pipe, err := openRing(path, size)
	if err != nil {
		return nil, err
	}
	return &ringReader{pipe: pipe, src: src}, nil
}

// poll consumes every complete byte of progress currently available,
// handing finished frames to sink (which takes ownership). It reports
// whether any bytes moved. A corrupt header fails closed: the reader is
// poisoned and the pair's remaining traffic is the control plane's
// problem, exactly like a TCP stream that stopped decoding.
func (rr *ringReader) poll(sink func(*Message)) bool {
	if rr.bad {
		return false
	}
	progressed := false
	for {
		if rr.m == nil {
			n := rr.pipe.readAvail(rr.hdr[rr.hgot:])
			if n == 0 {
				return progressed
			}
			progressed = true
			rr.hgot += n
			if rr.hgot < wireHeaderLen {
				continue
			}
			rr.hgot = 0
			m := GetMessage()
			need, err := parseMessageHeader(rr.hdr[:], m)
			if err != nil {
				FreeMessage(m)
				rr.bad = true
				return progressed
			}
			if need > 0 {
				m.SetPooledData(GetBuf(need))
			}
			rr.m, rr.need, rr.fill = m, need, 0
		}
		if rr.fill == rr.need {
			m := rr.m
			rr.m = nil
			sink(m)
			continue
		}
		n := rr.pipe.readAvail(rr.m.Data[rr.fill:rr.need])
		if n == 0 {
			return progressed
		}
		progressed = true
		rr.fill += n
	}
}

func (rr *ringReader) close() { rr.pipe.close() }
