package transport

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Stats is a network's traffic count: per kind, the messages and payload
// bytes its hosted endpoints sent (dropped sends to dead processes
// included) plus what Inject delivered. Every sender counts into its own
// block (senderBlock), so the send path writes no line another process
// writes; Snapshot adds the blocks up when someone reads.
type Stats struct {
	hosted   []*Endpoint // the network's hosted endpoints
	injected kindCounts  // Inject: out-of-band service messages
}

// kindCounts is one counting point's messages and payload bytes per Kind,
// side by side so that counting a send touches one slot.
type kindCounts [8]struct{ msgs, bytes atomic.Uint64 } // indexed by Kind

// add counts one message of kind k carrying n payload bytes. Concurrent
// callers must not share c: a sender's block is written under its mutex,
// which is why a load and a store stand in for a locked add.
func (c *kindCounts) add(k Kind, n int) {
	c[k].msgs.Store(c[k].msgs.Load() + 1)
	c[k].bytes.Store(c[k].bytes.Load() + uint64(n))
}

// addTo adds the counts into out.
func (c *kindCounts) addTo(out *StatsSnapshot) {
	for i := range c {
		out.Msgs[i] += c[i].msgs.Load()
		out.Bytes[i] += c[i].bytes.Load()
	}
}

// StatsSnapshot is a plain-value copy of Stats.
type StatsSnapshot struct {
	Msgs  [8]uint64
	Bytes [8]uint64
}

// Snapshot adds up the counters: every hosted endpoint's sender block and
// the Inject path. It does not allocate.
func (s *Stats) Snapshot() StatsSnapshot {
	var out StatsSnapshot
	for _, ep := range s.hosted {
		if sb := ep.own.sender.Load(); sb != nil {
			sb.sent.addTo(&out)
		}
	}
	s.injected.addTo(&out)
	return out
}

// AppMsgs returns the number of application-payload-bearing messages
// (eager + rendezvous data). This is the quantity the paper's O(q*r) vs
// O(q*r^2) comparison counts.
func (s StatsSnapshot) AppMsgs() uint64 {
	return s.Msgs[KindEager] + s.Msgs[KindData]
}

// AckMsgs returns the number of protocol acknowledgements. With ack
// coalescing one KindAck message may carry many acknowledgement records;
// this counts messages on the wire, which is exactly what coalescing is
// meant to reduce.
func (s StatsSnapshot) AckMsgs() uint64 { return s.Msgs[KindAck] }

// TotalMsgs returns all messages of every kind.
func (s StatsSnapshot) TotalMsgs() uint64 {
	var t uint64
	for _, v := range s.Msgs {
		t += v
	}
	return t
}

// Wire is the mechanism that moves an already-enveloped message to the
// destination endpoint's inbound queue. The contract is batch-first:
// Deliver stages (or immediately forwards) one message, Flush emits
// whatever a source has staged. The in-process wire forwards on Deliver
// and has nothing to flush; the socket wire stages frames per ordered pair
// and emits them as single vectored writes at flush points (see batch.go
// for the trigger set).
//
// Ownership: Deliver takes ownership of m (envelope and payload). From
// that point the message has exactly one owner — the wire's staged batch,
// then either the destination queue or the pool (via FreeMessage after
// serializing, or when delivery is impossible). A staged batch slice is
// exactly one ownership handoff per element: the flush that empties it
// serializes-and-releases or drops-and-releases each frame, once.
//
// FIFO: implementations must preserve per ordered-pair FIFO across flush
// boundaries — staging order is emission order, and a batch never
// overtakes an earlier batch for the same pair.
//
// Rendezvous payloads have a zero-copy form on a wire that moves bytes
// itself: DeliverLent on the sending side, the landing table it hands the
// network on the receiving side (landing.go). The in-process wire moves no
// bytes — it copies a lent payload like any other and has no table.
type Wire interface {
	// Deliver stages m toward its destination. It must preserve per
	// ordered-pair FIFO ordering and must not block indefinitely.
	Deliver(m *Message) error
	// DeliverLent is Deliver for a message whose payload is only lent:
	// m.Data is the caller's buffer, and when the call returns the wire
	// holds no reference to it — the frame was written out behind whatever
	// the pair had staged, or dropped. A wire (or a path: self-sends) that
	// cannot consume the payload synchronously takes a pooled copy.
	DeliverLent(m *Message) error
	// Flush emits frames staged by source endpoint src (NoProc = every
	// source this wire serves): all of them when force is true, only
	// batches older than the age threshold otherwise. The engine calls
	// it on the same schedule as Engine.OnFlush — non-forced from
	// Progress, forced immediately before blocking.
	Flush(src ProcID, force bool) error
	// Close releases wire resources.
	Close() error
}

// Network connects a fixed set of physical processes with reliable FIFO
// links. It provides fail-stop fault injection (Kill) and process
// resurrection for the recovery protocol (Revive).
type Network struct {
	n     int
	delay *DelayModel
	wire  Wire
	lands *landingTable // the socket wire's landing buffers; nil when nothing can land
	eps   []*Endpoint
	stats Stats // reads the hosted endpoints' sender blocks

	// Monitors to notify on kill/revive (the failure detection service).
	mu       sync.Mutex                   // sdr:lockrank netmon
	monitors []func(p ProcID, alive bool) // guarded by mu
}

// NewNetwork creates a network of n endpoints with the given delay model
// (nil for none) using the in-process wire.
func NewNetwork(n int, delay *DelayModel) *Network { return newNetwork(n, delay, 0, ProcID(n)) }

// newNetwork builds a network whose processes [lo, hi) are hosted here: they
// get world-sized inbound queues and the state only a process that runs
// here needs (hostedEndpoint). Every other endpoint is a bare Endpoint with
// one shard and no owner or parking state: a wire hosting [lo, hi) injects
// only into its own processes, so the others are only ever killed, revived
// and asked whether they are alive, never drained or waited on. Hosting is
// fixed here, never reshaped by a wire installed later.
func newNetwork(n int, delay *DelayModel, lo, hi ProcID) *Network {
	nw := &Network{n: n, delay: delay}
	nw.wire = inprocWire{nw}
	nw.eps = make([]*Endpoint, n)
	shards := shardCountFor(n)
	for i := range nw.eps {
		if p := ProcID(i); p >= lo && p < hi {
			nw.eps[i] = newHostedEndpoint(p, nw, shards)
		} else {
			nw.eps[i] = newEndpoint(p, nw, 1)
		}
	}
	if lo < hi {
		nw.stats.hosted = nw.eps[lo:hi]
	}
	if lo < hi {
		gQueueShards.Set(int64(shards))
	}
	return nw
}

// installWire installs the delivery mechanism. It is unexported by design:
// wires are injected at construction (NewPeerWire, or the combined
// NewPeerNetwork/NewTCPNetwork constructors), never swapped on a
// network that already carried traffic — the old exported SetWire made
// that mutate-after-construct mistake expressible, and silently dropped
// any frames the previous wire still had staged.
func (nw *Network) installWire(w Wire) {
	if _, ok := nw.wire.(inprocWire); !ok && nw.wire != nil {
		panic("transport: network already has a wire installed")
	}
	nw.wire = w
}

// FlushWire flushes traffic staged on the wire by source endpoint src
// (NoProc = all sources): everything when force is true, only aged batches
// otherwise. The MPI engine calls this alongside its OnFlush hook —
// non-forced on every Progress, forced immediately before blocking — so
// staged frames never outlive the window in which batching helps. The
// in-process wire delivers immediately and this is a no-op.
func (nw *Network) FlushWire(src ProcID, force bool) error {
	return nw.wire.Flush(src, force)
}

// Size returns the number of endpoints.
func (nw *Network) Size() int { return nw.n }

// Endpoint returns the endpoint for process p.
func (nw *Network) Endpoint(p ProcID) *Endpoint {
	return nw.eps[int(p)]
}

// Stats exposes the traffic counters: Snapshot adds up the senders' blocks.
func (nw *Network) Stats() *Stats { return &nw.stats }

// Delay returns the configured delay model (nil if none).
func (nw *Network) Delay() *DelayModel { return nw.delay }

// Monitor registers a callback invoked on every Kill and Revive. The
// failure-detection service uses this as its (assumed-perfect) sensor.
func (nw *Network) Monitor(f func(p ProcID, alive bool)) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.monitors = append(nw.monitors, f)
}

func (nw *Network) notify(p ProcID, alive bool) {
	nw.mu.Lock()
	ms := make([]func(ProcID, bool), len(nw.monitors))
	copy(ms, nw.monitors)
	nw.mu.Unlock()
	for _, f := range ms {
		f(p, alive)
	}
}

// Kill marks process p as crashed (fail-stop). Messages already delivered
// to other processes' queues remain deliverable — they model traffic that
// was on the wire when the crash happened. Messages sent to p after the
// kill are dropped. The process goroutine itself observes the kill at its
// next library entry via Endpoint.Crashed.
func (nw *Network) Kill(p ProcID) { nw.kill(nw.eps[int(p) : int(p)+1]) }

// KillAll crashes every process at once, the teardown of a lost epoch.
func (nw *Network) KillAll() { nw.kill(nw.eps) }

// kill crashes eps together: every one is marked dead before the first
// lock barrier, wake-up or monitor callback, so the failure detector's
// synchronous broadcast for the first victim reaches none of the others —
// no process can take a notification (and substitute for a twin) in the
// moment between two kills.
func (nw *Network) kill(eps []*Endpoint) {
	for _, ep := range eps {
		ep.dead.Store(true)
	}
	for _, ep := range eps {
		ep.lockBarrier()
		ep.wake()
	}
	for _, ep := range eps {
		nw.notify(ep.id, false)
	}
}

// lockBarrier acquires and releases every shard lock. After it returns,
// every injector either completed its append before the barrier or will
// observe the dead flag under its shard lock (see injectAt).
func (ep *Endpoint) lockBarrier() {
	for i := range ep.shards {
		ep.shards[i].mu.Lock()
		//lint:ignore SA2001 the empty critical section is the barrier
		ep.shards[i].mu.Unlock()
	}
}

// Revive resurrects process p with a fresh, empty endpoint state. The
// recovery protocol (paper §3.4) uses this to model the substitute forking
// a replacement replica.
func (nw *Network) Revive(p ProcID) {
	ep := nw.eps[int(p)]
	// Clear first, then flip alive: injections observe the dead flag, so
	// everything cleared here predates the kill and nothing injected after
	// the flip is lost. The dead incarnation's landing buffers go with its
	// queues: no payload may land in a receive nobody waits for.
	ep.clearQueues()
	nw.lands.drop(p)
	ep.dead.Store(false)
	ep.wake()
	nw.notify(p, true)
}

// Inject delivers an out-of-band message directly to dst's inbound queue,
// bypassing any endpoint (and the delay model). System services — the
// failure detector the paper assumes — use this to notify processes.
func (nw *Network) Inject(dst ProcID, m *Message) {
	if dst < 0 || int(dst) >= nw.n {
		return
	}
	m.Dst = dst
	nw.stats.injected[m.Kind].msgs.Add(1)
	nw.stats.injected[m.Kind].bytes.Add(uint64(len(m.Data)))
	nw.eps[int(dst)].inject(m)
}

// Alive reports whether process p is currently alive.
func (nw *Network) Alive(p ProcID) bool {
	return !nw.eps[int(p)].dead.Load()
}

// Close shuts down the wire.
func (nw *Network) Close() error {
	if nw.wire != nil {
		return nw.wire.Close()
	}
	return nil
}

// inprocWire delivers messages by appending them directly to the
// destination endpoint queue under its (sharded) lock.
type inprocWire struct{ nw *Network }

func (w inprocWire) Deliver(m *Message) error {
	dst := w.nw.eps[int(m.Dst)]
	dst.inject(m)
	return nil
}

// DeliverLent copies: the message sits in the destination queue long after
// the lending call returned.
func (w inprocWire) DeliverLent(m *Message) error {
	m.ownData()
	return w.Deliver(m)
}

// Flush is a no-op: in-process delivery is immediate, nothing stages.
func (w inprocWire) Flush(ProcID, bool) error { return nil }

func (w inprocWire) Close() error { return nil }

// queued is an inbound message annotated with its simulated arrival time.
type queued struct {
	m         *Message
	deliverAt time.Time
}

// Inbound queue shard sizing. Senders hash by source process, so with many
// ranks concurrent deliveries no longer serialize on one lock; per-
// ordered-pair FIFO is preserved because one source always lands in the
// same shard. A hosted endpoint's count is sized from the world at
// construction — the next power of two covering the peer count — so 8 ranks
// get the old 8 shards while a 256-rank world no longer funnels 32 sources
// through each lock. The floor keeps small worlds at the tuned eight-shard
// geometry; the cap is the width of the endpoint's ready mask (one bit per
// shard in one atomic word) — above it, sources wrap around shards evenly.
// An endpoint its network does not host has one shard (see newNetwork), so a
// worker's network costs n small endpoints plus one world-sized one.
const (
	minQueueShards = 8
	maxQueueShards = 64
)

// Endpoint.ready has one bit per shard; this fails to compile past 64.
const _ = uint(64 - maxQueueShards)

// shardCountFor returns the shard count for a world of n processes: the
// next power of two ≥ n, clamped to [minQueueShards, maxQueueShards].
func shardCountFor(n int) int {
	c := minQueueShards
	for c < n && c < maxQueueShards {
		c <<= 1
	}
	return c
}

// qshard is one slice of an endpoint's inbound queue, with its own lock.
// The pad keeps hot shard headers on distinct cache lines.
type qshard struct {
	mu sync.Mutex // sdr:lockrank epshard
	q  []queued   // guarded by mu
	_  [32]byte
}

// Endpoint is one process's attachment point to the network. All methods
// are safe for concurrent use; the owning process goroutine receives, any
// goroutine may send to it.
//
// An Endpoint holds what every endpoint needs: identity, liveness and the
// inbound queue with its ready mask and sleeper counts. What only a process
// running here needs — the sender block, the drain buffer, the
// parked-receiver state — comes with the hostedEndpoint allocation, so the
// n−1 endpoints a worker's network does not host stay small.
type Endpoint struct {
	// Inbound path: per-source shards plus atomic coordination state, so
	// delivery does not serialize every sender on one endpoint lock. The
	// shard slice is sized at construction (shardCountFor, or one for an
	// endpoint the network does not host) and never resized. Everything an
	// injector touches comes first and fits one line: measured on
	// pingpong-64B, reading the sleeper counts from a line of their own
	// cost an SDR round trip 5–10 %.
	shards []qshard
	dead   atomic.Bool
	// sleepers counts receivers blocked in WaitActivity or
	// WaitActivityAcks; ackSleepers those of them that declared an interest
	// in acknowledgements (WaitActivityAcks). A KindAck arrival wakes only
	// those: a process parked in a plain receive cannot act on an ack, so
	// waking it buys a context switch and nothing else.
	sleepers    atomic.Int32
	ackSleepers atomic.Int32
	// ready says where the queued messages are: bit i is set exactly while
	// shard i is non-empty. Both transitions happen under shard i's lock —
	// injectAt sets the bit after its append, emptied clears it for whoever
	// leaves the shard empty — so the receiver locks only shards that hold
	// something, and ready == 0 is "nothing queued" with no counter beside it.
	ready atomic.Uint64
	// park and own are the parked receivers' and the owning process's
	// state; both nil on an endpoint the network does not host.
	park *parkState
	own  *ownerState
	id   ProcID
	nw   *Network
}

// cacheLine is the coherence unit the layouts below pad to.
const cacheLine = 64

// hostedEndpoint is the one allocation behind an endpoint its network
// hosts. Injectors write ready, read the sleeper counts and take park.mu;
// the owner writes own on every drain. The pads start park on a line of its
// own, so a wake touches one line, put the owner's words at least a line
// away from every injector word and from either end of the allocation, so
// neither a sender on another CPU nor a neighbouring hosted endpoint shares
// the owner's line, and round the size up to a multiple of the line, whose
// size class starts every object on a line (TestHostedEndpointLayout).
type hostedEndpoint struct {
	ep   Endpoint
	_    [2*cacheLine - unsafe.Sizeof(Endpoint{})]byte
	park parkState
	_    [cacheLine]byte
	own  ownerState
	_    [cacheLine + 16]byte
}

// ownerState is written only by the process the endpoint belongs to.
type ownerState struct {
	// sender is allocated by the first send (see senderBlock).
	sender atomic.Pointer[senderBlock]
	// drainBuf backs the slice returned by Drain; owned by the receiving
	// goroutine and reused across calls.
	drainBuf []*Message
}

// senderBlock is a hosted endpoint's sender side: its per-destination
// stamps, delay clock and traffic counts, written by its sends alone. It
// is allocated by the first send — a process that never sends has none —
// and clock only on a network with a delay model. Its size is a multiple of
// the line, so the allocator's size class keeps it on lines of its own.
type senderBlock struct {
	mu    sync.Mutex              // sdr:lockrank epsend
	tseq  []uint64                // guarded by mu; per destination, the next FIFO stamp
	clock *linkClock              // guarded by mu; nil without a delay model
	sent  kindCounts              // written under mu, read by Stats.Snapshot
	_     [3*cacheLine - 168]byte // to a multiple of the line (TestHostedEndpointLayout)
}

// parkState coordinates blocking receivers with the (rare) wake-ups: the
// delivery hot path reads the endpoint's sleeper counts and takes mu only
// when somebody sleeps. mu and cond, which a wake touches, fill the first
// line. timer is what ends a timed wait: one per endpoint, created by the
// first timed wait and re-armed by the later ones, its callback is wake.
type parkState struct {
	mu      sync.Mutex // sdr:lockrank epwake
	cond    sync.Cond
	wakeups uint32      // guarded by mu; times a blocked receiver resumed, by an arrival, a kill or its deadline (Wakeups)
	timer   *time.Timer // guarded by mu
}

// linkClock is the delay model's sender-side serialization state.
type linkClock struct {
	linkFree map[ProcID]time.Time // per destination: when the previous transfer stops occupying the link
	lastOut  time.Time            // end of this process's previous send overhead
}

func (ep *Endpoint) init(id ProcID, nw *Network, shards int) {
	ep.id, ep.nw = id, nw
	ep.shards = make([]qshard, shards)
}

func newEndpoint(id ProcID, nw *Network, shards int) *Endpoint {
	ep := new(Endpoint)
	ep.init(id, nw, shards)
	return ep
}

func newHostedEndpoint(id ProcID, nw *Network, shards int) *Endpoint {
	h := new(hostedEndpoint)
	h.ep.init(id, nw, shards)
	h.park.cond.L = &h.park.mu
	h.ep.own, h.ep.park = &h.own, &h.park
	return &h.ep
}

// senderFor returns the sender block, allocating it on the first send.
func (o *ownerState) senderFor(nw *Network) *senderBlock {
	if sb := o.sender.Load(); sb != nil {
		return sb
	}
	// Whole lines of stamps: a shorter array would share its line with
	// whatever the allocator puts next to it, another sender's stamps
	// included.
	sb := &senderBlock{tseq: make([]uint64, nw.n, (nw.n+7)&^7)}
	if nw.delay != nil {
		sb.clock = &linkClock{linkFree: make(map[ProcID]time.Time)}
	}
	if !o.sender.CompareAndSwap(nil, sb) {
		return o.sender.Load()
	}
	return sb
}

// ID returns the endpoint's process ID.
func (ep *Endpoint) ID() ProcID { return ep.id }

// Crashed reports whether this process has been killed. The owning
// goroutine checks this at library entries to realize its own crash.
func (ep *Endpoint) Crashed() bool { return ep.dead.Load() }

// shardOf maps a source process to its inbound shard, masking with this
// endpoint's shard count. Src may be NoProc (-1) for
// service-injected messages.
func (ep *Endpoint) shardOf(src ProcID) int {
	return int(uint(int(src)+1) & uint(len(ep.shards)-1))
}

// Send transmits m to m.Dst. Sends to dead destinations are silently
// dropped (fail-stop model: the bytes fall off the wire). Send applies the
// network delay model: the sender pays the per-message software overhead,
// and the message is stamped with its simulated arrival time.
//
// The caller's envelope is copied into a pooled Message before it enters
// the network, so the caller may immediately reuse m. Ownership of the
// payload transfers with the send: if m.Data was attached with
// SetPooledData, the transport (and ultimately the final consumer) releases
// it, and the caller must not touch the buffer after Send returns.
func (ep *Endpoint) Send(m *Message) error { return ep.send(m, false) }

// SendLent is Send for a payload the caller only lends: m.Data is the
// application's buffer, and when SendLent returns the transport holds no
// reference to it, so the caller may hand it back to the application. On
// the socket wire the bytes go out in the pair's next vectored write,
// issued before the call returns, behind every frame already staged for
// the destination; everywhere the frame would outlive the call (in-process
// wire, delayed delivery, self-sends) it carries a pooled copy instead.
func (ep *Endpoint) SendLent(m *Message) error { return ep.send(m, true) }

// PostLanding registers buf as the landing buffer of the rendezvous
// exchange xid this process is about to clear to send: a KindData frame of
// that exchange arriving over a socket is read straight into buf, up to
// len(buf), and delivered as a landed envelope (see landing.go). On a
// network whose wire cannot land it does nothing, and keeps nothing.
func (ep *Endpoint) PostLanding(xid uint64, buf []byte) { ep.nw.lands.post(ep.id, xid, buf) }

// WithdrawLanding takes xid's registration back, if it is still posted —
// the payload came another way, or the exchange is being rebound — and
// returns only when no socket reader is writing the buffer.
func (ep *Endpoint) WithdrawLanding(xid uint64) { ep.nw.lands.withdraw(ep.id, xid) }

func (ep *Endpoint) send(m *Message, lent bool) error {
	var err error
	switch {
	case m.Dst < 0 || int(m.Dst) >= ep.nw.n:
		err = fmt.Errorf("transport: send to invalid proc %d", m.Dst)
	case ep.own == nil:
		err = fmt.Errorf("transport: proc %d is not hosted by this network", ep.id)
	}
	if err != nil {
		// The send fails before ownership transfers; release a pooled
		// payload so erroneous sends do not leak it.
		if m.pflags&flagPooledData != 0 {
			FreeBuf(m.Data)
			m.Data = nil
			m.pflags &^= flagPooledData
		}
		return err
	}
	m.Src = ep.id

	sb := ep.own.senderFor(ep.nw)
	sb.mu.Lock()
	sb.sent.add(m.Kind, len(m.Data))
	m.tseq = sb.tseq[m.Dst]
	sb.tseq[m.Dst]++

	var deliverAt time.Time
	if d, c := ep.nw.delay, sb.clock; d != nil {
		now := time.Now()
		// Consecutive sends from one process serialize on its CPU.
		start := now
		if c.lastOut.After(start) {
			start = c.lastOut
		}
		ready := start.Add(d.SendOverhead)
		c.lastOut = ready
		// The link to this destination serializes payload transfer.
		free := c.linkFree[m.Dst]
		if ready.After(free) {
			free = ready
		}
		free = free.Add(d.transferTime(len(m.Data)))
		c.linkFree[m.Dst] = free
		deliverAt = free.Add(d.Latency)
		sb.mu.Unlock()
		// The sender's CPU is busy until the overhead is paid.
		spinUntil(ready)
	} else {
		sb.mu.Unlock()
	}

	// Copy the envelope into a pooled message so the caller can reuse m;
	// payload-pool ownership travels with the copy.
	q := GetMessage(ep.id)
	env := q.pflags
	*q = *m
	q.pflags = (m.pflags & flagPooledData) | env
	m.pflags &^= flagPooledData // ownership moved to q

	if !deliverAt.IsZero() {
		if lent {
			q.ownData() // queued until its simulated arrival
		}
		return ep.nw.deliverDelayed(q, deliverAt)
	}
	if lent {
		return ep.nw.wire.DeliverLent(q)
	}
	return ep.nw.wire.Deliver(q)
}

func (nw *Network) deliverDelayed(m *Message, at time.Time) error {
	dst := nw.eps[int(m.Dst)]
	dst.injectAt(m, at)
	return nil
}

// inject appends m to the inbound queue (immediate arrival).
func (ep *Endpoint) inject(m *Message) { ep.injectAt(m, time.Time{}) }

func (ep *Endpoint) injectAt(m *Message, at time.Time) {
	i := ep.shardOf(m.Src)
	sh := &ep.shards[i]
	sh.mu.Lock()
	// The dead check happens under the shard lock, and Kill passes a
	// lock barrier over every shard after setting the flag: an append
	// that raced the flag therefore completed before the barrier and
	// models in-flight traffic, while anything after the barrier
	// observes the flag and is dropped — exactly the fail-stop
	// semantics a single-lock queue had.
	if ep.dead.Load() {
		sh.mu.Unlock()
		FreeMessage(m) // fail-stop: the bytes fall off the wire
		return
	}
	sh.q = append(sh.q, queued{m: m, deliverAt: at})
	// The one place a ready bit is set, under the shard lock: were it set
	// after the unlock, Drain could empty the shard and clear the bit first,
	// and this late set would leave it up over an empty shard for good.
	if len(sh.q) == 1 {
		ep.ready.Or(1 << i)
	}
	// Read before the unlock: past it m may already belong to the receiver.
	waiters := &ep.sleepers
	if m.Kind == KindAck {
		waiters = &ep.ackSleepers
	}
	sh.mu.Unlock()
	if waiters.Load() > 0 {
		ep.wake()
	}
}

// Wakeups reports how many times a blocked receiver resumed. The receiver
// counts, under the lock it wakes up holding; the injectors' path carries no
// bookkeeping for it.
func (ep *Endpoint) Wakeups() uint32 {
	pk := ep.park
	pk.mu.Lock()
	defer pk.mu.Unlock()
	return pk.wakeups
}

// Parked reports whether a receiver is blocked in WaitActivity or
// WaitActivityAcks right now (tests pair it with Wakeups).
func (ep *Endpoint) Parked() bool { return ep.sleepers.Load() > 0 }

// wake broadcasts to blocked receivers. Kill wakes every endpoint, and one
// the network does not host has no parking state.
func (ep *Endpoint) wake() {
	if pk := ep.park; pk != nil {
		pk.wake()
	}
}

// wake broadcasts to blocked receivers. Taking mu orders the broadcast
// against a receiver that is between registering as a sleeper and calling
// cond.Wait (it holds mu for that whole window), so wakeups cannot be
// lost.
func (pk *parkState) wake() {
	pk.mu.Lock()
	pk.cond.Broadcast()
	pk.mu.Unlock()
}

// emptied records that shard i was just left empty: the one place a ready
// bit is cleared. Caller holds shard i's lock.
func (ep *Endpoint) emptied(i int) { ep.ready.And(^(uint64(1) << i)) }

// clearQueues removes (and releases) everything queued, for Revive.
func (ep *Endpoint) clearQueues() {
	for i := range ep.shards {
		sh := &ep.shards[i]
		sh.mu.Lock()
		for j := range sh.q {
			FreeMessage(sh.q[j].m)
			sh.q[j] = queued{}
		}
		sh.q = sh.q[:0]
		ep.emptied(i)
		sh.mu.Unlock()
	}
}

// Drain removes and returns all inbound messages whose simulated arrival
// time has passed, preserving per-source FIFO order. It never blocks.
//
// The returned slice is backed by a per-endpoint buffer owned by the
// receiving goroutine: it is valid until the next Drain call. Ownership of
// the returned messages transfers to the caller, which releases each with
// FreeMessage once consumed.
func (ep *Endpoint) Drain() []*Message {
	ready := ep.ready.Load()
	if ready == 0 {
		return nil
	}
	out := ep.own.drainBuf[:0]
	var now time.Time
	for ; ready != 0; ready &= ready - 1 {
		i := bits.TrailingZeros64(ready)
		sh := &ep.shards[i]
		sh.mu.Lock()
		keep := sh.q[:0]
		for _, q := range sh.q {
			if !q.deliverAt.IsZero() {
				if now.IsZero() {
					now = time.Now()
				}
				if q.deliverAt.After(now) {
					keep = append(keep, q)
					continue
				}
			}
			out = append(out, q.m)
		}
		for j := len(keep); j < len(sh.q); j++ {
			sh.q[j] = queued{} // unpin handed-off messages
		}
		sh.q = keep
		if len(keep) == 0 {
			ep.emptied(i) // a shard keeping arrivals not yet due keeps its bit
		}
		sh.mu.Unlock()
	}
	ep.own.drainBuf = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// WaitActivity blocks until at least one message is deliverable, the
// process is killed, or the timeout elapses. It returns false if the
// process was killed. A zero timeout means wait indefinitely. Once blocked,
// an arriving acknowledgement does not end the wait (it is delivered with
// the next message that does): callers whose progress depends on acks use
// WaitActivityAcks.
func (ep *Endpoint) WaitActivity(timeout time.Duration) bool {
	return ep.waitActivity(timeout, false)
}

// WaitActivityAcks is WaitActivity for a caller waiting on an ack gate: an
// arriving KindAck wakes it like any other message.
func (ep *Endpoint) WaitActivityAcks(timeout time.Duration) bool {
	return ep.waitActivity(timeout, true)
}

func (ep *Endpoint) waitActivity(timeout time.Duration, acks bool) bool {
	deadline := time.Time{}
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		if ep.dead.Load() {
			return false
		}
		if mask := ep.ready.Load(); mask != 0 {
			if ep.nw.delay == nil {
				// Every arrival is due: return without taking the shard
				// locks the senders write, which Drain takes next anyway.
				return true
			}
			ready, earliest := ep.scanArrivals(mask)
			if ready {
				return true
			}
			if earliest.IsZero() {
				// Revive emptied the shards between the load and the scan;
				// the mask is exact, so the retry reads them as empty.
				continue
			}
			// Only delayed arrivals are queued: sleep (off the locks)
			// until the earliest, bounded by the deadline.
			if !deadline.IsZero() && earliest.After(deadline) {
				earliest = deadline
			}
			spinUntil(earliest)
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				return true
			}
			continue
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return true
		}
		// Nothing queued: block. Register as a sleeper before re-checking
		// the mask so a concurrent injector either sees the sleeper and
		// broadcasts (under mu, ordered with our Wait) or set its shard's
		// bit before our re-check reads the mask. A timed wait parks on the
		// same condition, so an arrival ends it like any other; the timer's
		// broadcast only stands in for the arrival that did not come.
		pk := ep.park
		pk.mu.Lock()
		ep.sleepers.Add(1)
		if acks {
			ep.ackSleepers.Add(1)
		}
		if ep.ready.Load() == 0 && !ep.dead.Load() {
			// The timer's callback is wake, which takes mu: it cannot
			// broadcast before Wait has released it. One left over from an
			// earlier wait is a spurious wake-up the loop absorbs.
			if !deadline.IsZero() {
				if d := time.Until(deadline); pk.timer == nil {
					pk.timer = time.AfterFunc(d, pk.wake)
				} else {
					pk.timer.Reset(d)
				}
			}
			// sdr:holdblock-ok condition wait: Wait releases mu while parked
			pk.cond.Wait()
			pk.wakeups++
			if !deadline.IsZero() {
				pk.timer.Stop()
			}
		}
		if acks {
			ep.ackSleepers.Add(-1)
		}
		ep.sleepers.Add(-1)
		pk.mu.Unlock()
	}
}

// scanArrivals reports whether any message queued in the shards of mask is
// deliverable now and, if not, the earliest future arrival time among the
// delayed ones.
func (ep *Endpoint) scanArrivals(mask uint64) (ready bool, earliest time.Time) {
	var now time.Time
	for ; mask != 0; mask &= mask - 1 {
		sh := &ep.shards[bits.TrailingZeros64(mask)]
		sh.mu.Lock()
		for _, q := range sh.q {
			if q.deliverAt.IsZero() {
				sh.mu.Unlock()
				return true, time.Time{}
			}
			if now.IsZero() {
				now = time.Now()
			}
			if !q.deliverAt.After(now) {
				sh.mu.Unlock()
				return true, time.Time{}
			}
			if earliest.IsZero() || q.deliverAt.Before(earliest) {
				earliest = q.deliverAt
			}
		}
		sh.mu.Unlock()
	}
	return false, earliest
}
