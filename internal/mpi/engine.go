package mpi

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/transport"
)

// DefaultEagerLimit is the payload size, in bytes, at or below which a send
// uses the eager wire protocol (the payload travels with the envelope and
// the sender completes immediately after buffering). Larger messages use
// the rendezvous protocol (RTS → match → CTS → Data).
const DefaultEagerLimit = 64 << 10

// PReq is a PML-level request: one posted receive or one in-flight
// rendezvous send on a specific physical channel. Protocols compose one or
// more PReqs (plus their own gating, e.g. replication acks) into an
// application Request. An eager send has none: it is complete when Isend
// returns.
//
// A PReq is its own completion status. A receive's peer and tag are match
// filters until it matches; a matched receive is never matched again, so
// from then on they name the sender and the message's tag, and seq, meta
// and count describe the message. A rendezvous send keeps the sequence
// number and meta of its outgoing message in seq and meta.
type PReq struct {
	// buf is a receive's buffer, or a rendezvous send's payload.
	buf []byte
	// comm restricts a wildcard receive to the members of a communicator
	// (nil accepts every source).
	comm *Comm
	xid  uint64
	seq  uint64
	meta [4]int64
	tag  int
	ctx  uint32
	// peer is a send's destination, or a receive's physical source
	// (AnyProc: any process whose base rank is from) — the sender, once
	// the receive has matched.
	peer int32
	// from is the base rank a receive from AnyProc accepts (AnySource:
	// any member of comm), mapped from the sender through Engine.RankOf.
	from int32
	// count is a matched receive's payload size; the wire bounds a payload
	// at 64 MiB.
	count     int32
	send      bool
	done      bool
	cancelled bool
	truncated bool
	sink      bool // duplicate-RTS sink: completion is not an event
}

// One PReq is allocated per receive and per rendezvous send, and one
// Request per Isend/Irecv (blocking calls keep theirs on the stack): these
// keep them within the 112- and 64-byte allocation classes.
const (
	_ = uint(112 - unsafe.Sizeof(PReq{}))
	_ = uint(64 - unsafe.Sizeof(Request{}))
)

// PStatus returns the PML-level completion status, built from the
// request's own fields.
func (r *PReq) PStatus() PStatus {
	return PStatus{SrcPhys: transport.ProcID(r.peer), Ctx: r.ctx, Tag: r.tag,
		Count: int(r.count), Seq: r.seq, Meta: r.meta}
}

// Ctx returns the request's context.
func (r *PReq) Ctx() uint32 { return r.ctx }

// Seq returns the matched message's sequence number.
func (r *PReq) Seq() uint64 { return r.seq }

// Meta returns slot i of the matched message's meta (see MetaSrcRank).
func (r *PReq) Meta(i int) int64 { return r.meta[i] }

// Count returns the matched message's payload size in bytes.
func (r *PReq) Count() int { return int(r.count) }

// Buf returns the receive buffer (protocols use it for SDC hashing).
func (r *PReq) Buf() []byte { return r.buf }

// matches reports whether incoming message m can be delivered to posted
// receive r.
func (e *Engine) matches(r *PReq, m *transport.Message) bool {
	if r.send || r.done || r.cancelled {
		return false
	}
	if r.ctx != m.Ctx {
		return false
	}
	if r.tag != AnyTag && r.tag != m.Tag {
		return false
	}
	if r.peer != int32(AnyProc) {
		return transport.ProcID(r.peer) == m.Src
	}
	src := Rank(m.Src)
	if e.RankOf != nil {
		src = e.RankOf(m.Src)
	}
	if r.from == int32(AnySource) {
		return r.comm == nil || r.comm.InComm(src)
	}
	return src == Rank(r.from)
}

// Engine is the PML: the per-process matching and progress engine. It is
// owned by the process goroutine and is not safe for concurrent use; all
// progress happens inside library calls, matching the paper's no-async-
// progress assumption.
type Engine struct {
	ep         *transport.Endpoint
	nw         *transport.Network
	EagerLimit int

	posted     []*PReq
	unexpected []*transport.Message
	unexpHW    int // high-water mark of the unexpected queue
	rdvRecv    map[uint64]*PReq
	rdvSend    map[uint64]*PReq
	nextXID    uint64

	// Protocol hooks (the vProtocol interception points). OnArrive sees
	// every application message (eager or RTS) before matching and may
	// swallow it (return false) to reorder or deduplicate; swallowed
	// messages re-enter matching through InjectMatch. OnRecvComplete is
	// the paper's irecvComplete event; OnMatch is the match event.
	//
	// Ownership: a protocol that swallows a message in OnArrive owns it —
	// it either re-injects it later (InjectMatch) or releases it with
	// transport.FreeMessage. Messages passed to OnAck/OnHash/OnCtl are
	// only valid for the duration of the call; the engine releases them
	// when the hook returns.
	OnArrive       func(*transport.Message) bool
	OnMatch        func(*PReq, *transport.Message)
	OnRecvComplete func(*PReq)
	OnAck          func(*transport.Message)
	OnHash         func(*transport.Message)
	OnCtl          func(*transport.Message)

	// OnFlush lets a protocol piggyback deferred work on engine progress
	// (SDR-MPI flushes coalesced acks here). Progress invokes it with
	// force=false after handling inbound traffic; WaitUntil and Wait only
	// with force=true, before blocking, which is what keeps deferred acks
	// from deadlocking a peer's ack-gated send.
	OnFlush func(force bool)

	// OnFinish sees a receive complete at the application level (its
	// Request's Wait or Test), as opposed to OnRecvComplete's PML-level
	// event — once per request, and only for requests marked with
	// Request.HookFinish.
	OnFinish func(*PReq)

	// RankOf maps a physical process to its base rank for receives from
	// AnyProc; nil is the identity (the native protocol's layout).
	RankOf func(transport.ProcID) Rank
}

// NewEngine creates the PML engine for the process attached to ep.
func NewEngine(nw *transport.Network, ep *transport.Endpoint) *Engine {
	return &Engine{
		ep:         ep,
		nw:         nw,
		EagerLimit: DefaultEagerLimit,
		rdvRecv:    make(map[uint64]*PReq),
		rdvSend:    make(map[uint64]*PReq),
	}
}

// Proc returns the physical process ID this engine belongs to.
func (e *Engine) Proc() transport.ProcID { return e.ep.ID() }

// Endpoint returns the transport endpoint (protocols use it to emit acks
// and control messages).
func (e *Engine) Endpoint() *transport.Endpoint { return e.ep }

// checkCrash unwinds the goroutine if this process has been killed.
func (e *Engine) checkCrash() {
	if e.ep.Crashed() {
		Crash(e.ep.ID())
	}
}

// Isend starts a PML-level send of data to physical process dst. For
// payloads at or below EagerLimit it copies the payload into a pooled
// buffer (so the caller's buffer is immediately reusable), sends it and
// returns nil: the send is complete, and ownership of the copy transfers to
// the transport and ultimately to the receiving engine, which recycles it
// after delivery. Larger payloads use rendezvous and return a request that
// completes when the data has been shipped after a CTS: the caller's buffer
// is lent to the wire for that one call and must not change until the
// request completes.
func (e *Engine) Isend(dst transport.ProcID, ctx uint32, tag int, data []byte, seq uint64, meta [4]int64) *PReq {
	e.checkCrash()
	if len(data) <= e.EagerLimit {
		cp := transport.GetBuf(e.ep.ID(), len(data))
		copy(cp, data)
		var m transport.Message
		m.Dst = dst
		m.Kind = transport.KindEager
		m.Ctx, m.Tag, m.Seq, m.Meta = ctx, tag, seq, meta
		m.SetPooledData(cp)
		e.ep.Send(&m)
		return nil
	}
	e.nextXID++
	meta[MetaLen] = int64(len(data))
	r := &PReq{send: true, ctx: ctx, tag: tag, peer: int32(dst), buf: data,
		seq: seq, meta: meta, xid: uint64(e.ep.ID()+1)<<40 | e.nextXID}
	e.rdvSend[r.xid] = r
	e.ep.Send(&transport.Message{
		Dst: dst, Kind: transport.KindRTS,
		Ctx: ctx, Tag: tag, Seq: seq, XID: r.xid, Meta: meta,
	})
	return r
}

// Irecv posts a PML-level receive. src is a specific physical process or
// AnyProc. From AnyProc, the receive accepts a sender whose base rank
// (RankOf) is from, or, with from = AnySource, any sender that is a member
// of c (nil: any sender at all).
func (e *Engine) Irecv(src transport.ProcID, from Rank, c *Comm, ctx uint32, tag int, buf []byte) *PReq {
	r := e.NewRecv(src, c, ctx, tag, buf)
	e.Post(r, from)
	return r
}

// NewRecv builds a PML-level receive without posting it, so a protocol
// can hand out (or record) the request before it can match.
func (e *Engine) NewRecv(src transport.ProcID, c *Comm, ctx uint32, tag int, buf []byte) *PReq {
	return &PReq{ctx: ctx, tag: tag, peer: int32(src), comm: c, buf: buf}
}

// Post posts receive r, built by NewRecv, for the base rank from (see
// Irecv): it takes the first unexpected message it matches, in arrival
// order, or joins the posted queue. A receive cancelled before it is
// posted is never posted.
func (e *Engine) Post(r *PReq, from Rank) {
	e.checkCrash()
	if r.done {
		return
	}
	r.from = int32(from)
	for i, m := range e.unexpected {
		if e.matches(r, m) {
			e.unexpected = slices.Delete(e.unexpected, i, i+1)
			e.deliver(r, m)
			return
		}
	}
	e.posted = append(e.posted, r)
}

// Cancel marks a request cancelled. Posted receives are withdrawn from
// matching; pending rendezvous sends are dropped (a late CTS is ignored).
func (e *Engine) Cancel(r *PReq) {
	if r == nil || r.done {
		return
	}
	r.cancelled = true
	r.done = true
	if r.send {
		delete(e.rdvSend, r.xid)
		return
	}
	if i := slices.Index(e.posted, r); i >= 0 {
		e.posted = slices.Delete(e.posted, i, i+1)
	}
}

// CancelSendsTo cancels every pending rendezvous send addressed to dst —
// its CTS will never come once dst has failed. Eager sends complete
// immediately and need no cancellation.
func (e *Engine) CancelSendsTo(dst transport.ProcID) {
	for xid, r := range e.rdvSend {
		if transport.ProcID(r.peer) == dst {
			delete(e.rdvSend, xid)
			r.cancelled = true
			r.done = true
		}
	}
}

// RebindRTS re-attaches a duplicate RTS to a matched-but-incomplete
// rendezvous receive of the same logical message (same context, sequence
// and source rank). This happens when the original sender crashed between
// its RTS and the payload transfer: the substitute's re-send must resume
// the broken handshake rather than be discarded. Returns false if no
// incomplete receive matches.
func (e *Engine) RebindRTS(m *transport.Message) bool {
	for xid, r := range e.rdvRecv {
		if r.sink || r.done {
			continue
		}
		if r.ctx == m.Ctx && r.seq == m.Seq && r.meta[MetaSrcRank] == m.Meta[MetaSrcRank] {
			// The receive buffer moves from the broken exchange to the new
			// one. Withdrawing waits out a reader still writing the old
			// sender's bytes, so the two never write the buffer at once.
			delete(e.rdvRecv, xid)
			e.ep.WithdrawLanding(xid)
			r.peer, r.meta = int32(m.Src), m.Meta
			e.clearToSend(r, m)
			return true
		}
	}
	return false
}

// SinkRTS completes a duplicate rendezvous handshake into nothing.
// Replication protocols call it when the sequencer discards a duplicate RTS
// (mirror mode's redundant copies, or a substitute's re-send racing the
// in-flight original): the duplicate sender still needs a CTS to complete
// its request, and the redundant payload transfer is exactly the bandwidth
// cost the mirror protocol pays. The sink has no buffer: its zero-length
// landing makes the socket reader skip the payload in the stream, and a
// payload that arrives pooled is simply released.
func (e *Engine) SinkRTS(m *transport.Message) {
	r := &PReq{ctx: m.Ctx, tag: m.Tag, peer: int32(m.Src), count: int32(m.Meta[MetaLen]),
		seq: m.Seq, meta: m.Meta, sink: true}
	e.clearToSend(r, m)
}

// clearToSend answers RTS m on behalf of receive r. The receive buffer is
// posted as the exchange's landing buffer BEFORE the CTS leaves, so it is
// in place whenever the payload arrives: over a socket the wire reads the
// payload straight into it and delivers a landed envelope (see handle);
// on any other path the registration costs nothing or is withdrawn there.
func (e *Engine) clearToSend(r *PReq, m *transport.Message) {
	e.rdvRecv[m.XID] = r
	e.ep.PostLanding(m.XID, r.buf)
	e.ep.Send(&transport.Message{Dst: m.Src, Kind: transport.KindCTS, Ctx: m.Ctx, XID: m.XID})
}

// UnexpectedMessages returns the unexpected queue itself, not a copy: the
// replay-state capture, its one caller, encodes the messages at once and
// neither keeps nor modifies them.
func (e *Engine) UnexpectedMessages() []*transport.Message { return e.unexpected }

// SeedUnexpected pre-loads the unexpected queue of a freshly built engine
// (a restored replica's admitted-but-unconsumed messages).
func (e *Engine) SeedUnexpected(ms []*transport.Message) {
	e.unexpected = append(e.unexpected, ms...)
}

// TakeUnexpected hands the unexpected queue to the caller — ownership of
// the messages transfers with it — and leaves the queue empty. The
// sequencer tests and benchmarks drain admitted messages this way: the
// queue preserves admission order, and taking it whole avoids the
// per-message removal cost of head-matched receives.
func (e *Engine) TakeUnexpected() []*transport.Message {
	ms := e.unexpected
	e.unexpected = nil
	return ms
}

func (e *Engine) findPosted(m *transport.Message) *PReq {
	for i, r := range e.posted {
		if e.matches(r, m) {
			e.posted = slices.Delete(e.posted, i, i+1)
			return r
		}
	}
	return nil
}

// InjectMatch feeds an application message into the matching engine,
// bypassing the OnArrive hook. Replication protocols use it to release
// messages held back for sequencing.
func (e *Engine) InjectMatch(m *transport.Message) {
	if req := e.findPosted(m); req != nil {
		e.deliver(req, m)
		return
	}
	e.unexpected = append(e.unexpected, m)
	if len(e.unexpected) > e.unexpHW {
		e.unexpHW = len(e.unexpected)
	}
}

// InjectMatchBatch feeds an in-order run of application messages into the
// matching engine — the admitted arrival plus every consecutive stashed
// message it released. One pass amortizes the unexpected-queue growth and
// high-water bookkeeping over the whole run instead of per message; order
// within the batch is preserved (it IS the sequence order).
func (e *Engine) InjectMatchBatch(ms []*transport.Message) {
	if need := len(e.unexpected) + len(ms); len(ms) > 1 && cap(e.unexpected) < need {
		// Grow once for the whole batch, but never below doubling — exact
		// sizing here would recopy the queue on every batch of a burst.
		newCap := 2 * cap(e.unexpected)
		if newCap < need {
			newCap = need
		}
		grown := make([]*transport.Message, len(e.unexpected), newCap)
		copy(grown, e.unexpected)
		e.unexpected = grown
	}
	for _, m := range ms {
		if req := e.findPosted(m); req != nil {
			e.deliver(req, m)
			continue
		}
		e.unexpected = append(e.unexpected, m)
	}
	if len(e.unexpected) > e.unexpHW {
		e.unexpHW = len(e.unexpected)
	}
}

// deliver completes the match of message m with posted receive req: eager
// payloads complete immediately (match + irecvComplete); an RTS posts the
// receive buffer for landing, triggers the CTS reply, and completion is
// deferred to the Data arrival. deliver is the terminal consumption point
// for m: once the payload is copied into the receive buffer (or the CTS is
// on its way), the message's pooled storage is recycled.
func (e *Engine) deliver(req *PReq, m *transport.Message) {
	// The match filters become the status: ctx already equals m's.
	req.peer, req.tag, req.seq, req.meta = int32(m.Src), m.Tag, m.Seq, m.Meta
	if m.Kind == transport.KindRTS {
		req.count = int32(m.Meta[MetaLen])
		if e.OnMatch != nil {
			e.OnMatch(req, m)
		}
		e.clearToSend(req, m)
		transport.FreeMessage(m)
		return
	}
	if e.OnMatch != nil {
		e.OnMatch(req, m)
	}
	req.count = int32(m.Len())
	if m.Len() > len(req.buf) {
		req.truncated = true
	}
	copy(req.buf, m.Data)
	req.done = true
	transport.FreeMessage(m)
	if e.OnRecvComplete != nil {
		e.OnRecvComplete(req)
	}
}

// handle dispatches one inbound transport message. For control-plane
// kinds (ack/hash/ctl/CTS) the hooks consume the message by value, so its
// storage is recycled as soon as they return; application messages
// (eager/RTS/Data) live until deliver or an owning protocol releases them.
//
// A rendezvous payload crosses user space without a copy when both ends sit
// on the socket wire: on CTS the sender lends the application buffer to the
// wire, and the Data frame lands in the receive buffer posted by
// clearToSend. Either half degrades on its own to one pooled copy — inside
// SendLent, or in the Data arm below — where the wire cannot do it.
func (e *Engine) handle(m *transport.Message) {
	switch m.Kind {
	case transport.KindAck:
		if e.OnAck != nil {
			e.OnAck(m)
		}
		transport.FreeMessage(m)
	case transport.KindHash:
		if e.OnHash != nil {
			e.OnHash(m)
		}
		transport.FreeMessage(m)
	case transport.KindCtl:
		if e.OnCtl != nil {
			e.OnCtl(m)
		}
		transport.FreeMessage(m)
	case transport.KindCTS:
		if r, ok := e.rdvSend[m.XID]; ok {
			delete(e.rdvSend, m.XID)
			// Lend the caller's buffer: completing the request frees it
			// for reuse (MPI_Wait semantics), and SendLent returns only
			// once the transport holds no reference to it — the bytes
			// went through the pair's vectored write, or into a pooled
			// copy where delivery outlives the call — exactly as a NIC's
			// send completion implies the buffer has been read.
			e.ep.SendLent(&transport.Message{
				Dst: m.Src, Kind: transport.KindData,
				Ctx: r.ctx, Tag: r.tag, Seq: r.seq, XID: m.XID, Meta: r.meta,
				Data: r.buf,
			})
			r.done = true
		}
		transport.FreeMessage(m)
	case transport.KindData:
		if r, ok := e.rdvRecv[m.XID]; ok {
			delete(e.rdvRecv, m.XID)
			n, landed := m.Landed()
			if !landed {
				// The frame came a way that cannot land (ring, in-process
				// wire, delayed delivery): copy, and take back the
				// registration no reader will claim. A sink copies nothing.
				n = m.Len()
				copy(r.buf, m.Data)
				e.ep.WithdrawLanding(m.XID)
			}
			if n > len(r.buf) {
				r.truncated = true
			}
			r.count = int32(n)
			r.done = true
			if e.OnRecvComplete != nil && !r.sink {
				e.OnRecvComplete(r)
			}
		}
		transport.FreeMessage(m)
	case transport.KindEager, transport.KindRTS:
		if e.OnArrive != nil && !e.OnArrive(m) {
			return
		}
		e.InjectMatch(m)
	default:
		panic(fmt.Sprintf("mpi: unknown message kind %v", m.Kind))
	}
}

// Progress drains and processes all deliverable inbound messages. It
// returns true if any message was processed. It also realizes this
// process's own crash, if one has been injected. After the protocol's
// OnFlush hook (which may stage coalesced acks on the wire), aged wire
// batches are flushed — the transport-level twin of ack coalescing, on
// the same trigger schedule.
func (e *Engine) Progress() bool {
	got := e.poll()
	e.flush(false)
	return got
}

// poll drains and handles every deliverable inbound message.
func (e *Engine) poll() bool {
	e.checkCrash()
	msgs := e.ep.Drain()
	for _, m := range msgs {
		e.handle(m)
	}
	return len(msgs) > 0
}

// flush runs the protocol's OnFlush hook, then flushes the wire batches:
// aged ones only, or all of them when forced.
func (e *Engine) flush(force bool) {
	if e.OnFlush != nil {
		e.OnFlush(force)
	}
	e.nw.FlushWire(e.ep.ID(), force)
}

// WaitUntil pumps progress until cond holds. It unwinds with the crash
// sentinel if this process is killed while waiting. Every iteration —
// including the one that satisfies cond — force-flushes coalesced acks and
// staged wire batches (no unforced pass: the forced one ships all): a
// process never sleeps on, and never returns to the application holding,
// acknowledgements it still owes. This is the liveness half of coalescing;
// batching happens within one progress round, where bursts actually arrive
// together. cond is opaque, so the wait is ack-interested: an arriving
// acknowledgement wakes it.
func (e *Engine) WaitUntil(cond func() bool) {
	for {
		e.poll()
		done := cond()
		e.flush(true)
		if done {
			return
		}
		if !e.ep.WaitActivityAcks(0) {
			Crash(e.ep.ID())
		}
	}
}

// UnexpectedLen reports the current depth of the unexpected-message queue
// (used by the leader-baseline experiments: delayed receive posting grows
// this queue, §3.1).
func (e *Engine) UnexpectedLen() int { return len(e.unexpected) }

// PostedLen reports the number of posted, unmatched receives.
func (e *Engine) PostedLen() int { return len(e.posted) }

// UnexpectedHighWater reports the deepest the unexpected queue has been —
// the §3.1 cost of posting receives late (leader-based wildcards).
func (e *Engine) UnexpectedHighWater() int { return e.unexpHW }
