package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Dialing policy of the socket wire. A dead remote peer must never
// hang a sender forever: every dial carries a hard timeout, and the retry
// loop is bounded — after it, the message is treated as fallen off the
// wire (fail-stop) or the error surfaces to the caller.
const (
	// DialTimeout bounds one connection attempt.
	DialTimeout = 2 * time.Second
	// DialAttempts bounds the redial loop.
	DialAttempts = 3
	// dialBackoff is the initial sleep between attempts (doubled each
	// retry, so the total worst-case stall is bounded and small).
	dialBackoff = 25 * time.Millisecond
)

// dialRetry dials addr with DialTimeout per attempt and full-jitter
// backoff between attempts. It returns the first successful connection or
// the last error once the attempt budget is spent.
//
// The jitter matters at scale: a 256-worker rendezvous has every worker
// dialing every exchange peer in the same instant, and a deterministic
// 25/50/100 ms ladder re-aligns the whole herd on each retry — the
// listeners that dropped the first SYN flood get the identical flood again.
// Full jitter (uniform in (0, ceiling], ceiling doubling per retry) spreads
// each wave across the whole window while keeping the worst-case stall
// identical to the old deterministic ladder.
func dialRetry(addr string) (net.Conn, error) {
	var lastErr error
	for attempt := 0; attempt < DialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(jitteredBackoff(attempt))
		}
		c, err := net.DialTimeout("tcp", addr, DialTimeout)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// jitteredBackoff returns the sleep before retry `attempt` (1-based):
// uniform in (0, dialBackoff·2^(attempt-1)].
func jitteredBackoff(attempt int) time.Duration {
	ceiling := dialBackoff << (attempt - 1)
	return time.Duration(rand.Int64N(int64(ceiling))) + 1
}

// RingConfig arms the colocated shared-memory ring transport on a peer
// wire: Dir is the coordinator-provided per-epoch directory holding one
// ring file per ordered pair, Bytes the per-pair capacity (0 =
// DefaultRingBytes). See ring.go for the transport itself.
type RingConfig struct {
	Dir   string
	Bytes int
}

// PeerWire is the socket transport: it hosts a contiguous range of the
// network's processes, listens on one port for traffic addressed to them,
// and dials the listeners of everyone else's hosts (looked up in the peer
// table). A distributed worker hosts exactly one process — its own — and
// gets the table from the rendezvous registry; the in-process loopback
// network (NewTCPNetwork) hosts every process on one wire whose table
// points them all at its own listener, so every pair but self-sends still
// crosses a real socket.
//
// Outbound traffic is batch-first: Deliver stages frames per ordered
// (source, destination) pair and Flush emits each staged batch as one
// net.Buffers vectored write (or one ring push for colocated peers) — see
// batch.go for the triggers.
//
// Delivery semantics:
//   - a process's messages to itself are injected directly into its
//     endpoint queue (no socket round-trip);
//   - messages to any other process are staged and flushed onto a lazily
//     dialed, cached connection (one per ordered pair, preserving per-pair
//     FIFO across flush boundaries) — or onto the pair's shared-memory ring
//     when rendezvous negotiated one (same host, ring directory armed);
//   - messages to a peer declared dead — or one that stays unreachable
//     after the bounded dial budget — are dropped: the fail-stop model's
//     bytes-fall-off-the-wire rule, exactly like Endpoint.Send to a killed
//     in-process endpoint. The failure detector (the coordinator's control
//     plane) is the authority on death; the wire never invents liveness
//     information, it only stops burning dial budgets once told. Every
//     drop is counted on sdr_transport_dropped_total with its reason;
//   - an inbound frame addressed to a process this wire does not host is
//     freed and skipped, never injected into a foreign queue;
//   - a rendezvous payload crosses user space without a copy: lent on the
//     way out (DeliverLent), landed on the way in (landing.go).
type PeerWire struct {
	nw *Network
	ln net.Listener

	// Hosted processes are [lo, hi); srcs[p-lo] is hosted process p's
	// outbound side. Sized at construction, never resized.
	lo, hi ProcID
	srcs   []source
	lands  *landingTable // the hosted processes' posted receive buffers, shared with nw

	mu      sync.Mutex            // sdr:lockrank peer
	addrs   []string              // guarded by mu; proc → listener address ("" = unknown)
	inbound map[net.Conn]struct{} // guarded by mu
	ringCfg RingConfig            // guarded by mu

	readers  atomic.Pointer[[]*ringReader]
	bell     *bell // the ring scanner's doorbell; set by the first SetRingPeers, before the scanner starts
	scanOnce sync.Once

	// The flush backstop: flushLoop waits on backstop, a one-shot timer
	// that deliver starts (armed false→true) when it leaves a frame staged
	// and nobody has armed it since the last fire.
	armed    atomic.Bool
	backstop *time.Timer

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// source is one hosted process's outbound side: a link per destination,
// the count of frames staged across them — so an engine-driven Flush is a
// cheap no-op while this process, whatever its neighbours on the wire are
// doing, has nothing pending — and which links hold them, so a Flush with
// something pending locks those links and no others.
type source struct {
	staged atomic.Int64
	// dirty has one bit per link (word dst/64, bit dst%64), set exactly
	// while the link holds staged frames. Both transitions happen under
	// that link's mu: stageLocked sets the bit with the first frame of a
	// batch, takeLocked clears it with the batch.
	dirty []atomic.Uint64
	links []link
}

func newSource(n int) source {
	return source{dirty: make([]atomic.Uint64, (n+63)/64), links: make([]link, n)}
}

// stageLocked stages m on the link to dst and reports whether the batch is
// now due for an inline flush. The one place a dirty bit is set. Caller
// holds the link's mu.
func (s *source) stageLocked(dst ProcID, m *Message) bool {
	l := &s.links[dst]
	if len(l.frames) == 0 {
		s.dirty[dst>>6].Or(1 << (dst & 63))
	}
	s.staged.Add(1)
	return l.stageLocked(m)
}

// takeLocked empties the link to dst and takes its frames off s's staged
// count. The one place a dirty bit is cleared. Caller holds the link's mu
// (see link.takeLocked for the aliasing rule on the returned slice).
func (s *source) takeLocked(dst ProcID) []*Message {
	frames := s.links[dst].takeLocked()
	if len(frames) > 0 {
		s.dirty[dst>>6].And(^(uint64(1) << (dst & 63)))
		s.staged.Add(int64(-len(frames)))
	}
	return frames
}

// newPeerWire builds the wire hosting processes [lo, hi) behind ln and
// installs it on the network (constructor injection; there is no
// post-construction wire swap).
func newPeerWire(nw *Network, lo, hi ProcID, ln net.Listener) *PeerWire {
	pw := &PeerWire{
		nw:       nw,
		ln:       ln,
		lo:       lo,
		hi:       hi,
		srcs:     make([]source, hi-lo),
		lands:    newLandingTable(lo, hi),
		addrs:    make([]string, nw.Size()),
		inbound:  make(map[net.Conn]struct{}),
		backstop: time.NewTimer(flushTick),
		done:     make(chan struct{}),
	}
	pw.backstop.Stop() // armed by the first frame left staged
	for i := range pw.srcs {
		pw.srcs[i] = newSource(nw.Size())
	}
	pw.wg.Add(1)
	go pw.acceptLoop()
	pw.wg.Add(1)
	go pw.flushLoop()
	nw.installWire(pw)
	nw.lands = pw.lands
	return pw
}

// NewPeerWire creates a peer wire for local process self, listening on
// listenAddr (host:0 picks a free port), and installs it on the network.
// Peer addresses must be provided via SetPeers before any remote traffic
// flows; the rendezvous registry guarantees that ordering by broadcasting
// the world table only after every worker has registered its listener.
func NewPeerWire(nw *Network, self ProcID, listenAddr string) (*PeerWire, error) {
	if listenAddr == "" {
		listenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: peer wire listen: %w", err)
	}
	return newPeerWire(nw, self, self+1, ln), nil
}

// NewPeerNetwork builds a full-size network whose only live endpoint is
// self, wired to its peers through a PeerWire injected at construction —
// what the distributed worker runs on. Only self's endpoint gets an inbound
// queue sized for the world; the others have one shard (see newNetwork).
func NewPeerNetwork(n int, self ProcID, listenAddr string) (*Network, *PeerWire, error) {
	nw := newNetwork(n, nil, self, self+1)
	pw, err := NewPeerWire(nw, self, listenAddr)
	if err != nil {
		return nil, nil, err
	}
	return nw, pw, nil
}

// NewTCPNetwork builds a network of n endpoints on one loopback wire that
// hosts them all: every message between two different processes crosses a
// real TCP connection to the wire's own listener. There is no delay model
// — Endpoint.Send routes delayed messages around the wire, so a simulated
// delay and a real socket exclude each other.
func NewTCPNetwork(n int) (*Network, *PeerWire, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("transport: loopback wire listen: %w", err)
	}
	nw := NewNetwork(n, nil)
	pw := newPeerWire(nw, 0, ProcID(n), ln)
	addrs := make([]string, n)
	for p := range addrs {
		addrs[p] = pw.Addr()
	}
	pw.SetPeers(addrs)
	return nw, pw, nil
}

// hosts reports whether p is one of this wire's local processes.
func (pw *PeerWire) hosts(p ProcID) bool { return p >= pw.lo && p < pw.hi }

// Addr returns the local listener address — what the worker registers with
// the rendezvous registry.
func (pw *PeerWire) Addr() string { return pw.ln.Addr().String() }

// SetPeers installs the ProcID → address table (the registry's world
// broadcast).
func (pw *PeerWire) SetPeers(addrs []string) {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	copy(pw.addrs, addrs)
}

// SetRingPeers arms the colocated ring transport: colocated[p] marks the
// peers sharing this worker's host (from the registry's world broadcast).
// For each of them the pair's outbound traffic switches from loopback TCP
// to the shared-memory ring, and a scan goroutine starts draining the
// inbound rings. Must be called alongside SetPeers, before remote traffic
// flows; peers already declared dead stay banned, and processes hosted by
// this very wire are never ring peers. A no-op when the platform has no
// ring support (or cannot give the scanner a doorbell) or cfg.Dir is empty.
//
// The doorbell is named after the wire's first hosted process and created
// here, before any inbound ring is attached, hence before a parked word can
// be up for a producer to find. Producers look for the bell of the process
// they address, so a wire hosting several processes hears only those of the
// first; the others' frames are found at the scanner's backstop.
func (pw *PeerWire) SetRingPeers(cfg RingConfig, colocated []bool) {
	if !ringSupported() || cfg.Dir == "" {
		return
	}
	if cfg.Bytes <= 0 {
		cfg.Bytes = DefaultRingBytes
	}
	if pw.bell == nil {
		bell, err := newBell(bellPath(cfg.Dir, pw.lo))
		if err != nil {
			return
		}
		pw.bell = bell
	}
	pw.mu.Lock()
	pw.ringCfg = cfg
	pw.mu.Unlock()

	// The inbound side attaches eagerly: the producer may start writing the
	// moment its world table lands, and the ring file buffers until this
	// consumer attaches. An attach failure leaves that pair on TCP —
	// inbound TCP is always accepted, so the asymmetry is harmless.
	var rs []*ringReader
	for p := 0; p < pw.nw.Size() && p < len(colocated); p++ {
		if !colocated[p] || pw.hosts(ProcID(p)) {
			continue
		}
		for i := range pw.srcs {
			if l := &pw.srcs[i].links[p]; !l.dead.Load() {
				l.ring.Store(true)
			}
			rr, err := newRingReader(ringPath(cfg.Dir, ProcID(p), pw.lo+ProcID(i)), cfg.Bytes, ProcID(p))
			if err != nil {
				continue
			}
			rs = append(rs, rr)
		}
	}
	if len(rs) > 0 {
		pw.readers.Store(&rs)
		pw.scanOnce.Do(func() {
			pw.wg.Add(1)
			go pw.ringScanLoop()
		})
	}
}

// ringPath names the ring file for the ordered pair src→dst.
func ringPath(dir string, src, dst ProcID) string {
	return filepath.Join(dir, fmt.Sprintf("ring-%d-%d", src, dst))
}

// bellPath names the doorbell of the scanner that consumes dst's rings.
func bellPath(dir string, dst ProcID) string {
	return filepath.Join(dir, fmt.Sprintf("bell-%d", dst))
}

// MarkDead records that peer p has failed (control-plane notification):
// its cached connections are dropped, its rings (if any) are permanently
// banned — the SPSC stream cannot survive an incarnation change, a
// producer killed mid-frame leaves it torn — and every later Deliver to it
// becomes an immediate fail-stop drop instead of a doomed dial.
func (pw *PeerWire) MarkDead(p ProcID) {
	if p < 0 || int(p) >= pw.nw.Size() {
		return
	}
	for i := range pw.srcs {
		s := &pw.srcs[i]
		l := &s.links[p]
		l.dead.Store(true)
		l.ring.Store(false)
		if tc := l.tc.Swap(nil); tc != nil {
			tc.c.Close()
		}
		// Frames already staged for p are dropped now rather than at the next
		// flush: the control plane said the bytes have nowhere to go. The drop
		// happens under l.mu — takeLocked's slice aliases the batch's backing
		// array, so it must be fully consumed before a concurrent Deliver can
		// stage into the same slots.
		l.mu.Lock()
		dropFrames(s.takeLocked(p), mDroppedDead)
		l.mu.Unlock()
	}
}

// Revive reverses MarkDead for a relaunched peer: its new listener address
// replaces the stale one and later flushes dial it again. Any cached
// connection is dropped — it pointed at the dead incarnation — and the
// ring ban stays: the new incarnation talks TCP.
func (pw *PeerWire) Revive(p ProcID, addr string) {
	if p < 0 || int(p) >= pw.nw.Size() {
		return
	}
	if addr != "" {
		pw.mu.Lock()
		pw.addrs[p] = addr
		pw.mu.Unlock()
	}
	for i := range pw.srcs {
		l := &pw.srcs[i].links[p]
		l.ring.Store(false)
		if tc := l.tc.Swap(nil); tc != nil {
			tc.c.Close()
		}
		l.dead.Store(false)
	}
}

func (pw *PeerWire) acceptLoop() {
	defer pw.wg.Done()
	backoff := time.Millisecond
	for {
		c, err := pw.ln.Accept()
		if err != nil {
			select {
			case <-pw.done:
				return // shutdown: Close closed the listener
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return // listener gone (Close raced the done signal)
			}
			// Transient accept failure (ECONNABORTED, EMFILE, ...): a
			// single error must not silently kill the listener for the
			// rest of the run. Back off — doubling so a persistent error
			// does not become a busy loop — and keep accepting.
			time.Sleep(backoff)
			if backoff < time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = time.Millisecond
		pw.mu.Lock()
		pw.inbound[c] = struct{}{}
		pw.mu.Unlock()
		pw.wg.Add(1)
		go pw.readLoop(c)
	}
}

// flushLoop is the liveness backstop: traffic staged by callers that never
// drive an engine flush (Endpoint.Send in tests, drain loops) still goes
// out within flushTick. It sleeps until the backstop timer fires, which only
// a frame left staged arms (armBackstop): an idle wire never wakes, a busy
// one wakes at most once per flushTick.
//
// A fire clears armed before it flushes. A frame staged after the clear
// arms the timer again; one staged before it was visible to the flush
// (its dirty bit is set before its Deliver reads armed), so it goes out
// now. Clearing after the flush would strand a frame staged behind the
// flush's pass over its link whose Deliver still saw armed set: no timer
// would be running for it.
func (pw *PeerWire) flushLoop() {
	defer pw.wg.Done()
	defer pw.backstop.Stop()
	for {
		select {
		case <-pw.done:
			return
		case <-pw.backstop.C:
			pw.armed.Store(false)
			frames := pw.flush(NoProc, true)
			mBackstopFires.Inc()
			mBackstopFrames.Add(uint64(frames))
		}
	}
}

// armBackstop starts the backstop timer unless it is already running or
// its fire has not yet cleared armed (that fire's flush still comes). The
// CAS lets one Deliver per fire reset the timer; the load in front keeps
// the rest from writing the shared word. With go 1.23+ channel timers the
// Reset of an expired timer leaves no stale tick behind.
func (pw *PeerWire) armBackstop() {
	if !pw.armed.Load() && pw.armed.CompareAndSwap(false, true) {
		pw.backstop.Reset(flushTick)
	}
}

// ringScanLoop multiplexes every inbound ring through one goroutine: a
// non-blocking poll pass over all readers, and a block on the wire's
// doorbell while every ring is idle. One goroutine (not one per ring) keeps
// 64-rank colocated worlds at one scanner per process.
//
// An idle scanner gives up the processor almost at once — ringSpinPasses
// passes a Gosched apart, no spin phase like the producer's ringBackoff: it
// covers every inbound ring at once, so spinning here burns a core whenever
// ANY peer is quiet, and a process hosting many wires (the in-process mesh)
// would melt under one spinner per wire. It then raises the parked word of
// every ring, makes the pass that catches whatever was published before a
// word went up, and blocks in the netpoller until a producer rings (see
// bell_unix.go for why not a futex and not a timer). While it keeps finding
// nothing — a stale bell, the backstop — the words stay up and it makes one
// pass per wake-up; the first frame takes them down again, so that producers
// stop paying a write per publish for a consumer that is already awake.
func (pw *PeerWire) ringScanLoop() {
	defer pw.wg.Done()
	idle, parked := 0, false
	for {
		select {
		case <-pw.done:
			return
		default:
		}
		rs := *pw.readers.Load()
		progressed := false
		for _, rr := range rs {
			if rr.poll(pw.ringInject) {
				progressed = true
			}
		}
		mRingScanPasses.Inc()
		switch {
		case progressed:
			if parked {
				setParked(rs, 0)
			}
			idle, parked = 0, false
		case parked:
			mRingParks.Inc()
			pw.bell.wait()
		case idle < ringSpinPasses:
			idle++
			runtime.Gosched()
		default:
			setParked(rs, 1)
			parked = true
		}
	}
}

// setParked raises (1) or lowers (0) the parked word of every inbound ring.
func setParked(rs []*ringReader, v uint32) {
	for _, rr := range rs {
		rr.pipe.hdr.parked.Store(v)
	}
}

// receive hands one decoded inbound frame to the hosted process it is
// addressed to. A misrouted frame — this listener serves only the
// processes it hosts — is dropped rather than corrupting a foreign queue.
func (pw *PeerWire) receive(m *Message) {
	n, landed := m.Landed()
	if !landed {
		n = len(m.Data)
	}
	mBytesIn.Add(uint64(wireHeaderLen + n))
	if !pw.hosts(m.Dst) {
		FreeMessage(m)
		return
	}
	pw.nw.eps[int(m.Dst)].inject(m)
}

// ringInject is the ring scanner's sink.
func (pw *PeerWire) ringInject(m *Message) {
	mRingFramesIn.Inc()
	pw.receive(m)
}

// readLoop decodes one inbound connection's traffic. A decode error or EOF
// (peer died, connection reset) simply ends the connection:
// retransmission is the sender's protocol-level concern, not the wire's.
func (pw *PeerWire) readLoop(c net.Conn) {
	defer pw.wg.Done()
	defer func() {
		c.Close()
		pw.mu.Lock()
		delete(pw.inbound, c)
		pw.mu.Unlock()
	}()
	fr := newFrameReader(c, pw.lands)
	// The dialer first sends an 8-byte (src,dst) preamble; it only keeps
	// the handshake explicit.
	if err := fr.discard(8); err != nil {
		return
	}
	for {
		m, err := fr.next()
		if err != nil {
			return
		}
		pw.receive(m)
	}
}

// Deliver implements Wire. A process's message to itself bypasses the
// sockets entirely; anything else is staged on the (source, destination)
// link — or dropped at stage time when the destination is dead (counted,
// reason "dead"). The batch that fills past a threshold is flushed inline.
// No wire-wide lock is taken, and a link belongs to one source: hosted
// processes sharing the wire never contend here.
func (pw *PeerWire) Deliver(m *Message) error { return pw.deliver(m, false) }

// DeliverLent implements Wire: the frame is staged behind whatever the link
// already holds and the batch is flushed before the link lock is released,
// so staging order is still emission order and the caller's buffer has been
// through the vectored write (or the ring push) — or the frame has been
// dropped, which releases the envelope and leaves the unpooled payload
// alone — by the time the call returns.
func (pw *PeerWire) DeliverLent(m *Message) error { return pw.deliver(m, true) }

func (pw *PeerWire) deliver(m *Message, lent bool) error {
	if !pw.hosts(m.Src) || int(m.Dst) >= pw.nw.n {
		dropFrames([]*Message{m}, mDroppedUnreachable)
		return nil
	}
	if m.Src == m.Dst {
		if lent {
			m.ownData() // queued, not written: it outlives the call
		}
		pw.nw.eps[int(m.Dst)].inject(m)
		return nil
	}
	s := &pw.srcs[m.Src-pw.lo]
	l := &s.links[m.Dst]
	if l.dead.Load() {
		dropFrames([]*Message{m}, mDroppedDead)
		return nil
	}
	l.mu.Lock()
	// The shutdown check lives under l.mu so it serializes with Close's
	// drain sweep: any frame staged before the sweep takes the link lock
	// is swept, any Deliver arriving after it lands here and drops.
	select {
	case <-pw.done:
		l.mu.Unlock()
		dropFrames([]*Message{m}, mDroppedClosed)
		return nil
	default:
	}
	inline := s.stageLocked(m.Dst, m) || lent
	if inline {
		pw.flushBatchLocked(m.Src, m.Dst, l)
	}
	l.mu.Unlock()
	if !inline {
		pw.armBackstop() // the frame stays staged: make sure a flush comes
	}
	return nil
}

// Flush implements Wire: emit the batches staged by hosted process src
// (NoProc = every hosted process) — all when force is true, only aged ones
// otherwise. Only src's links that hold frames are visited (a frame staged
// after a word of the bitmap was read waits for the next flush, as one
// staged behind the old all-links walk did), and nothing at all while src
// has nothing staged. Delivery failures never surface as errors here; they
// are fail-stop drops, counted by reason.
func (pw *PeerWire) Flush(src ProcID, force bool) error {
	pw.flush(src, force)
	return nil
}

// flush is Flush reporting the number of frames it took off the links.
func (pw *PeerWire) flush(src ProcID, force bool) (frames int) {
	lo, hi := pw.lo, pw.hi
	if src != NoProc {
		if !pw.hosts(src) {
			return 0
		}
		lo, hi = src, src+1
	}
	for p := lo; p < hi; p++ {
		s := &pw.srcs[p-pw.lo]
		if s.staged.Load() == 0 {
			continue
		}
		for w := range s.dirty {
			for word := s.dirty[w].Load(); word != 0; word &= word - 1 {
				dst := ProcID(w<<6 | bits.TrailingZeros64(word))
				l := &s.links[dst]
				l.mu.Lock()
				if l.dueLocked(force) {
					frames += pw.flushBatchLocked(p, dst, l)
				}
				l.mu.Unlock()
			}
		}
	}
	return frames
}

// flushBatchLocked emits the frames staged on src's link l to dst: one
// ring push for a colocated pair, otherwise one net.Buffers vectored write
// on the cached connection. It returns how many frames it took, written or
// dropped. Caller holds l.mu — the per-pair serialization that makes
// staging order the emission order.
func (pw *PeerWire) flushBatchLocked(src, dst ProcID, l *link) int {
	frames := pw.srcs[src-pw.lo].takeLocked(dst)
	n := len(frames)
	if n == 0 {
		return 0
	}

	// A flush racing with Close must not dial or touch ring mappings the
	// teardown is about to release; its frames are shutdown drops.
	select {
	case <-pw.done:
		dropFrames(frames, mDroppedClosed)
		return n
	default:
	}
	if l.dead.Load() {
		dropFrames(frames, mDroppedDead)
		return n
	}
	if !l.ring.Load() || !pw.flushRingLocked(src, dst, l, frames) {
		pw.flushTCP(src, dst, l, frames)
	}
	return n
}

// flushRingLocked pushes a batch through the pair's shared-memory ring and
// publishes it with one tail store (more only if it has to wait for room). It
// reports false — leaving the frames for the TCP path — only when the
// ring could not be opened at all (nothing was ever written to it, so
// switching transports preserves FIFO). After the first successful open, a
// push failure is a fail-stop drop AND a permanent ban of the pair: the
// consumer stopped draining, which from this side is indistinguishable
// from death, and without the ban every later flush would re-pay the full
// stall timeout under the link lock — freezing the sender's progress
// loop until the control plane declares the peer dead.
//
// Caller holds l.mu, which is also what keeps Close from unmapping the
// ring — and closing the doorbell descriptor — under these writes: Close
// releases each link's ring under that link's lock, after closing done —
// so a flush that saw done open finishes its writes first (a write parked
// on a full ring aborts on done), and one that sees it closed never
// reaches here.
func (pw *PeerWire) flushRingLocked(src, dst ProcID, l *link, frames []*Message) bool {
	if l.wr == nil {
		pw.mu.Lock()
		cfg := pw.ringCfg
		pw.mu.Unlock()
		pipe, err := openRing(ringPath(cfg.Dir, src, dst), cfg.Bytes)
		if err != nil {
			l.ring.Store(false)
			return false
		}
		pipe.bell = newBellRinger(bellPath(cfg.Dir, dst))
		l.wr = &ringWriter{pipe: pipe, done: pw.done}
	}
	total := 0
	for i, m := range frames {
		if err := l.wr.writeFrame(m); err != nil {
			l.ring.Store(false)
			dropFrames(frames[i:], mDroppedWrite)
			frames = frames[:i]
			break
		}
		total += wireHeaderLen + len(m.Data)
	}
	// One tail store for the batch, a failed one included: frames[:i] arrive
	// as they would have frame by frame, the torn rest is behind a ban.
	l.wr.pipe.publish()
	if len(frames) > 0 {
		mFlushes.Inc()
		mFlushFrames.Add(uint64(len(frames)))
		mRingFramesOut.Add(uint64(len(frames)))
		mBytesOut.Add(uint64(total))
		freeFrames(frames)
	}
	return true
}

// flushTCP emits a batch as one vectored write on the cached connection of
// the (src, dst) link. A write error drops the connection (the stream is
// mid-batch and every later write would be misframed) and retries the
// whole batch once on a fresh dial; if the peer stays unreachable the
// frames are released — fail-stop, counted by reason.
func (pw *PeerWire) flushTCP(src, dst ProcID, l *link, frames []*Message) {
	for attempt := 0; attempt < 2; attempt++ {
		tc, err := pw.conn(src, dst, l)
		if err != nil {
			dropFrames(frames, mDroppedUnreachable)
			return
		}
		tc.mu.Lock()
		bufs, total := tc.scratch.build(frames)
		// sdr:holdblock-ok per-pair FIFO: the conn lock must cover the vectored write so flushes never interleave
		_, err = bufs.WriteTo(tc.c)
		if err != nil {
			// A failed write leaves its unwritten segments in the scratch;
			// none may outlive this flush, one can be a lent payload.
			clear(tc.scratch.bufs)
		}
		tc.mu.Unlock()
		if err == nil {
			mFlushes.Inc()
			mFlushFrames.Add(uint64(len(frames)))
			mBytesOut.Add(uint64(total))
			freeFrames(frames)
			return
		}
		l.dropConn(tc)
		mRedials.Inc()
	}
	dropFrames(frames, mDroppedWrite)
}

// conn returns the link's cached connection, dialing it on first use. Only
// the flush holding the link's lock calls it, so there is one dialer per
// pair at a time — and none of them holds a wire-wide lock across the
// dial: a slow or dead peer stalls deliveries to itself only.
func (pw *PeerWire) conn(src, dst ProcID, l *link) (*tcpConn, error) {
	if l.dead.Load() {
		return nil, fmt.Errorf("transport: peer %d is dead", dst)
	}
	if tc := l.tc.Load(); tc != nil {
		return tc, nil
	}
	pw.mu.Lock()
	addr := pw.addrs[dst]
	pw.mu.Unlock()
	if addr == "" {
		return nil, fmt.Errorf("transport: no address for peer %d", dst)
	}
	c, err := dialRetry(addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial peer %d (%s): %w", dst, addr, err)
	}
	var pre [8]byte
	binary.LittleEndian.PutUint32(pre[:], uint32(int32(src)))
	binary.LittleEndian.PutUint32(pre[4:], uint32(int32(dst)))
	if _, err := c.Write(pre[:]); err != nil {
		c.Close()
		return nil, err
	}
	tc := &tcpConn{c: c}
	l.tc.Store(tc)
	// MarkDead sets the flag before it empties the slot: either its swap
	// took (and closed) tc, or the flag is visible here.
	if l.dead.Load() {
		l.dropConn(tc)
		return nil, fmt.Errorf("transport: peer %d died during dial", dst)
	}
	return tc, nil
}

// dropConn closes tc and forgets it, provided the link still caches it.
func (l *link) dropConn(tc *tcpConn) {
	l.tc.CompareAndSwap(tc, nil)
	tc.c.Close()
}

// Close shuts the wire down: a final forced flush pushes out anything
// staged, then listener, inbound readers, outbound connections and rings
// close; frames staged by a Deliver racing the shutdown are dropped and
// freed (counted, reason "closed") rather than stranded. Inbound
// connections must be closed here too — they are peers' outbound conns,
// and waiting for the peer to close its side first would deadlock two
// wires closing in sequence. Idempotent: the network's Close and a
// caller's deferred Close may race.
func (pw *PeerWire) Close() error {
	pw.closeOnce.Do(func() {
		_ = pw.Flush(NoProc, true)
		close(pw.done)
		pw.ln.Close()
		for i := range pw.srcs {
			for dst := range pw.srcs[i].links {
				if tc := pw.srcs[i].links[dst].tc.Load(); tc != nil {
					tc.c.Close()
				}
			}
		}
		pw.mu.Lock()
		for c := range pw.inbound {
			c.Close()
		}
		pw.mu.Unlock()
		if pw.bell != nil {
			pw.bell.close() // a scanner blocked on it wakes up to find done closed
		}
		pw.wg.Wait()
		// Frames staged between the final flush and the done signal have
		// no emitter left (flushLoop has exited): drop and free them rather
		// than stranding pooled buffers. The sweep serializes with
		// Deliver's under-lock shutdown check, so nothing can stage after
		// it — and with any flush still copying into a ring, so the unmap
		// below cannot pull the mapping from under it.
		for i := range pw.srcs {
			s := &pw.srcs[i]
			for dst := range s.links {
				l := &s.links[dst]
				l.mu.Lock()
				dropFrames(s.takeLocked(ProcID(dst)), mDroppedClosed)
				if l.wr != nil {
					l.wr.pipe.close()
					l.wr = nil
				}
				l.mu.Unlock()
			}
		}
		// The scan goroutine has exited: the inbound rings are idle.
		if rs := pw.readers.Load(); rs != nil {
			for _, rr := range *rs {
				rr.close()
			}
		}
	})
	return nil
}
