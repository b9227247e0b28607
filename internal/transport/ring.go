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
// Each side publishes its cursor once per unit of work, not per copy: the
// producer copies a whole flush and stores tail once (and before any wait on
// a full ring, so a frame larger than the free space still streams), the
// consumer loads tail once per poll pass and stores head once when the pass
// ends. Each keeps the other's cursor as last loaded and re-reads it only
// when that view runs out. tail sits alone on its cache line; head shares
// one with the parked word, which the producer writes only to wake the
// consumer.
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
// fresh epoch (fresh ring directory) may reuse. A producer killed mid-batch
// leaves its copied-but-unpublished bytes past tail, where nobody reads
// them: the consumer sees whole earlier batches (and any chunk published
// before a wait), never a batch's unpublished rest. A push that fails
// (stall, shutdown) publishes what it copied, bans the pair and drops the
// frames it did not finish. A producer stalled on a
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
	// ringMagic marks an initialized ring file ("SDRRING2"); a file in an
	// older header layout fails the check instead of being misread.
	ringMagic = uint64(0x53445252494e4732)
	// ringHdrSize is the mapped control header: three cache lines.
	ringHdrSize = 192
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
// tail store publishes the producer's data copies (release), the head store
// publishes consumption. Each cursor has its own cache line, so a store of
// one does not take the other's line from the side polling it.
type ringHdr struct {
	magic  atomic.Uint64
	rcap   atomic.Uint64
	_      [48]byte
	tail   atomic.Uint64 // producer cursor: total bytes published
	_      [56]byte
	head   atomic.Uint64 // consumer cursor: total bytes consumed
	parked atomic.Uint32 // 1 = the consumer is blocked (or about to block) on its doorbell
	_      [52]byte
}

// The header is exactly ringHdrSize, and tail and head sit on different
// 64-byte lines; either fails to compile otherwise.
const (
	_ = uint(ringHdrSize - unsafe.Sizeof(ringHdr{}))
	_ = uint(unsafe.Sizeof(ringHdr{}) - ringHdrSize)
	_ = uint(unsafe.Offsetof(ringHdr{}.head)/64 - unsafe.Offsetof(ringHdr{}.tail)/64 - 1)
)

// ringPipe is one mapped SPSC byte pipe. The mapping outlives the descriptor
// it was made from, which is closed as soon as the file is mapped.
//
// tail and head are this side's private view of the cursors: its own, ahead
// of the header's until published, and the other side's as last loaded.
type ringPipe struct {
	mem        []byte
	hdr        *ringHdr
	data       []byte
	size       uint64
	tail, head uint64
	bell       *bellRinger // producer side: the consumer's doorbell; nil on the consumer side
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
	return &ringPipe{mem: mem, hdr: hdr, data: mem[ringHdrSize:total], size: uint64(size),
		tail: hdr.tail.Load(), head: hdr.head.Load()}, nil
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

// push copies p into the ring behind what the batch copied so far, without
// publishing it, and blocks (bounded) while the ring is full. Before every
// wait it publishes: a frame larger than the free space streams through in
// chunks as the consumer drains, and the chunk just published — with the
// bell rung if the consumer is parked — is what must drain before the next
// one fits. A close on done (nil = never) aborts the wait immediately so a
// closing wire is not held hostage by a full ring. Single producer only.
func (r *ringPipe) push(p []byte, done <-chan struct{}) error {
	idle := 0
	var stall time.Time
	for len(p) > 0 {
		if r.tail-r.head == r.size {
			r.head = r.hdr.head.Load()
		}
		free := r.size - (r.tail - r.head)
		if free == 0 {
			r.publish()
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
		n := min(uint64(len(p)), free)
		off := r.tail % r.size
		k := min(n, r.size-off)
		copy(r.data[off:off+k], p[:k])
		copy(r.data[0:n-k], p[k:n])
		r.tail += n
		p = p[n:]
	}
	return nil
}

// publish makes everything push copied visible to the consumer with one tail
// store, and rings the doorbell if that store found the consumer parked.
func (r *ringPipe) publish() {
	if r.hdr.tail.Load() == r.tail {
		return
	}
	r.hdr.tail.Store(r.tail) // publishes the copies behind it
	if r.hdr.parked.Load() != 0 && r.hdr.parked.CompareAndSwap(1, 0) {
		r.bell.ring()
	}
}

// readAvail copies up to len(p) bytes of those published as of the pass's
// tail load out of the ring and returns how many were read (0 = none left).
// It moves the private head only; the pass stores it. Single consumer only.
func (r *ringPipe) readAvail(p []byte) int {
	n := min(uint64(len(p)), r.tail-r.head)
	if n == 0 {
		return 0
	}
	off := r.head % r.size
	k := min(n, r.size-off)
	copy(p[:k], r.data[off:off+k])
	copy(p[k:n], r.data[0:n-k])
	r.head += n
	return int(n)
}

// ringWriter is the producer side of one ordered pair: frames staged for
// the pair are pushed through it at flush time, in staging order (the
// batch lock serializes flushes, preserving SPSC and FIFO), and published
// once the batch is in. done is the owning wire's shutdown signal; a push
// parked on a full ring aborts when it closes.
type ringWriter struct {
	pipe *ringPipe
	done <-chan struct{}
	hdr  [wireHeaderLen]byte
}

// writeFrame copies one frame into the ring; the caller publishes.
func (w *ringWriter) writeFrame(m *Message) error {
	putMessageHeader(w.hdr[:], m)
	if err := w.pipe.push(w.hdr[:], w.done); err != nil {
		return err
	}
	return w.pipe.push(m.Data, w.done)
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

// poll consumes every byte published when it starts, handing finished
// frames to sink (which takes ownership), and then publishes the
// consumption with one head store. It reports whether any bytes moved. A
// corrupt header fails closed: the reader is poisoned and the pair's
// remaining traffic is the control plane's problem, exactly like a TCP
// stream that stopped decoding.
func (rr *ringReader) poll(sink func(*Message)) bool {
	if rr.bad {
		return false
	}
	r := rr.pipe
	if r.tail = r.hdr.tail.Load(); r.tail == r.head {
		return false
	}
	rr.consume(sink)
	r.hdr.head.Store(r.head) // on every path out of consume, the poisoning one included
	return true
}

// consume decodes the published bytes poll's pass loaded; partial frames
// carry over to the next pass.
func (rr *ringReader) consume(sink func(*Message)) {
	for {
		if rr.m == nil {
			n := rr.pipe.readAvail(rr.hdr[rr.hgot:])
			if n == 0 {
				return
			}
			rr.hgot += n
			if rr.hgot < wireHeaderLen {
				continue
			}
			rr.hgot = 0
			m := GetMessage(headerDst(rr.hdr[:]))
			need, err := parseMessageHeader(rr.hdr[:], m)
			if err != nil {
				FreeMessage(m)
				rr.bad = true
				return
			}
			if need > 0 {
				m.SetPooledData(GetBuf(m.Dst, need))
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
			return
		}
		rr.fill += n
	}
}

func (rr *ringReader) close() { rr.pipe.close() }
