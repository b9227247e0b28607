package core

import (
	"fmt"

	"repro/internal/detect"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Replicated is the replication protocol layer for one physical process.
// It implements mpi.Protocol. One instance exists per replica; together
// the instances of all replicas realize SDR-MPI (or one of the baseline
// modes).
type Replicated struct {
	proc   *mpi.Proc
	eng    *mpi.Engine
	layout Layout
	mode   Mode
	opts   Options

	myRank int
	myRep  int

	// Algorithm 1 state.
	physicalDests [][]transport.ProcID // rank → replicas I send application messages to
	physicalSrc   []transport.ProcID   // rank → replica I nominally receive from
	substitute    []int                // rep → rep emitting on its behalf (my rank's replica set)
	alive         []bool               // local consistent failure view

	// Sender state: per-(ctx, dstRank) next sequence number and retention
	// slot (dense, see sequencer.go and retention.go). retained counts the
	// unacknowledged entries across all slots; freeEntries recycles them.
	sendSeq     *seqTable
	retained    int
	freeEntries *sendEntry

	// Receiver state: per-(ctx, srcRank) next expected sequence, plus
	// out-of-order arrivals held back in per-rank rings for in-order
	// delivery into the matching engine. The sequencer both deduplicates
	// re-sent messages after a failure and preserves logical-rank FIFO
	// across the replica-to-substitute switchover. injectBuf is the
	// reusable batch an in-order arrival and the stashed run it releases
	// enter matching through — one injection pass per arrival.
	recvSeq   *seqTable
	injectBuf []*transport.Message

	// SDC state: per-(ctx, srcRank, seq) expected payload hashes from
	// other-world senders not yet paired with a local reception, and
	// hashes of local receptions not yet paired with a remote hash.
	sdcRemote map[retKey][]int64
	sdcLocal  map[retKey]uint64
	sdcCount  int

	// Sender-based message-logging state (see msglog.go): per-destination
	// payload logs for the logging-enabled (degree-1) ranks, truncated by
	// the receivers' checkpoint acknowledgements.
	logDests []bool
	msgLog   map[int][]*logEntry

	// Ack-coalescing state (see acks.go): per-destination batches of
	// acknowledgements not yet on the wire, indexed by physical process,
	// and the destinations whose batch is non-empty.
	coalesce bool
	ackPend  []ackQueue
	ackDirty []transport.ProcID

	// Leader-mode wildcard agreement state.
	wc leaderState

	// This process's cells of the message-path counters, resolved once so
	// Isend and the ack flush add into lines no other process writes.
	appMsgs, ackMsgs, acksCoalesced *obs.Cell
}

// NewReplicated builds the protocol layer for physical process proc under
// the given layout and mode, and registers the PML hooks. det provides the
// consistent failure view at construction (processes may be born into a
// world with prior failures only in recovery scenarios; normally all are
// alive).
func NewReplicated(proc *mpi.Proc, layout Layout, mode Mode, det *detect.Service, opts Options) *Replicated {
	if layout.R > maxDegree {
		panic(fmt.Sprintf("core: replication degree %d exceeds %d", layout.R, maxDegree))
	}
	p := &Replicated{
		proc:      proc,
		eng:       proc.Engine(),
		layout:    layout,
		mode:      mode,
		opts:      opts,
		myRank:    layout.RankOf(proc.ID()),
		myRep:     layout.RepOf(proc.ID()),
		sendSeq:   newSeqTable(layout.N, false),
		recvSeq:   newSeqTable(layout.N, true),
		sdcRemote: make(map[retKey][]int64),
		sdcLocal:  make(map[retKey]uint64),
		logDests:  opts.LogDests,
	}
	p.appMsgs = mAppMsgs.Cell(int(proc.ID()))
	p.ackMsgs = mAckMsgs.Cell(int(proc.ID()))
	p.acksCoalesced = mAcksCoalesced.Cell(int(proc.ID()))
	// Degree-aware topology (§5's research direction, MR-MPI's feature):
	// a rank whose degree does not reach this process's world has no
	// member here — its lowest replica permanently serves this world
	// through the standard substitution bookkeeping, so sends to it
	// become pure ack expectations and no phantom process is ever
	// involved.
	p.physicalDests = make([][]transport.ProcID, layout.N)
	p.physicalSrc = make([]transport.ProcID, layout.N)
	for rank := 0; rank < layout.N; rank++ {
		if p.myRep < layout.Degree(rank) {
			q := layout.Phys(p.myRep, rank)
			p.physicalDests[rank] = []transport.ProcID{q}
			p.physicalSrc[rank] = q
		} else {
			p.physicalSrc[rank] = layout.Phys(0, rank)
		}
	}
	p.substitute = make([]int, layout.R)
	for rep := range p.substitute {
		if rep < layout.Degree(p.myRank) {
			p.substitute[rep] = rep
		} else {
			p.substitute[rep] = 0
		}
	}
	if p.myRep == 0 {
		// The lowest replica emits to — and collects acks for — every
		// world its rank is absent from (the permanent analogue of a
		// failed replica's take-over).
		for w := layout.Degree(p.myRank); w < layout.R; w++ {
			for j := 0; j < layout.N; j++ {
				if w < layout.Degree(j) {
					if q := layout.Phys(w, j); !p.inDests(j, q) {
						p.physicalDests[j] = append(p.physicalDests[j], q)
					}
				}
			}
		}
	}
	p.alive = make([]bool, layout.Procs())
	for i := range p.alive {
		p.alive[i] = det == nil || det.Alive(transport.ProcID(i))
	}
	p.wc.init()

	// Processes may be born into a world with prior real failures
	// (recovery and restart scenarios): apply the ordinary failure
	// handling for them at construction.
	for i := range p.alive {
		if !p.alive[i] {
			p.alive[i] = true // arm the duplicate-notification guard
			p.onFailure(transport.ProcID(i))
		}
	}

	if mode != ModeMirror && !opts.NoAckCoalesce {
		p.initCoalescing()
	}

	if opts.AckOnWait && mode != ModeMirror {
		p.eng.OnFinish = p.sendAcksFor
	}
	p.eng.RankOf = p.rankOf
	p.eng.OnArrive = p.onArrive
	p.eng.OnRecvComplete = p.onRecvComplete
	p.eng.OnAck = p.onAck
	p.eng.OnCtl = p.onCtl
	if mode == ModeLeader {
		p.eng.OnMatch = p.onMatchLeader
	}
	if opts.SDC {
		p.eng.OnHash = p.onHash
	}
	return p
}

// Name implements mpi.Protocol.
func (p *Replicated) Name() string { return p.mode.String() }

// MyBaseRank implements mpi.Protocol.
func (p *Replicated) MyBaseRank() mpi.Rank { return mpi.Rank(p.myRank) }

// Layout returns the replica layout, which callers must not modify.
func (p *Replicated) Layout() *Layout { return &p.layout }

// Rep returns this process's replica (world) index.
func (p *Replicated) Rep() int { return p.myRep }

// RetainedCount reports how many sent messages are still unacknowledged
// (tests and the harness use it to assert message-deletion safety).
func (p *Replicated) RetainedCount() int { return p.retained }

// Quiesce pumps progress until every sent message is acknowledged. A
// finished Send no longer implies that — its own acks may still be on
// their way — so the points that need an empty retention table (the
// recovery fork, the replay-state capture) ask for it.
func (p *Replicated) Quiesce() {
	if p.retained != 0 {
		p.eng.WaitUntil(func() bool { return p.retained == 0 })
	}
}

// SDCDetected reports how many hash mismatches the SDC detector saw.
func (p *Replicated) SDCDetected() int { return p.sdcCount }

// AliveView returns whether this process currently believes q is alive.
func (p *Replicated) AliveView(q transport.ProcID) bool { return p.alive[int(q)] }

// --- Send path (Algorithm 1, MPI_Isend) -----------------------------------

// Isend implements mpi.Protocol. It transmits the payload to the
// destinations in physicalDests[dstRank] and, in parallel modes, records a
// retention entry expecting an ack from every other alive replica of the
// destination rank (lines 4–9 of Algorithm 1). It never blocks: what the
// returned request waits for is described in retention.go.
func (p *Replicated) Isend(c *mpi.Comm, ctx uint32, to mpi.Rank, tag int, data []byte) mpi.Request {
	dstRank := int(c.BaseRank(to))
	seq, slot := p.sendSeq.take(ctx, dstRank)
	p.appMsgs.Inc()

	if p.opts.Corrupt != nil {
		p.opts.Corrupt(dstRank, seq, data)
	}
	if p.opts.SendRecorder != nil {
		p.opts.SendRecorder(ctx, dstRank, tag, data)
	}

	var meta [4]int64
	meta[mpi.MetaSrcRank] = int64(p.myRank)
	meta[mpi.MetaDstRank] = int64(dstRank)
	meta[mpi.MetaWorld] = int64(p.myRep)

	if p.LogEnabled(dstRank) {
		// Sender-based message logging: keep an owned copy until the
		// destination's checkpoint acknowledgement covers it. Logged even
		// while the destination is down — the entry is then the ONLY copy,
		// re-sent at replay time to fill the outage window.
		p.logSend(ctx, dstRank, tag, seq, meta, data)
	}

	if p.mode == ModeMirror {
		return p.isendMirror(c, ctx, dstRank, tag, data, seq, meta)
	}

	var needed uint64
	preqs := make([]*mpi.PReq, 0, 2)
	for rep := 0; rep < p.layout.Degree(dstRank); rep++ {
		q := p.layout.Phys(rep, dstRank)
		switch {
		case p.inDests(dstRank, q):
			// A stale early ack from q is moot once q is a direct
			// destination (a take-over converted it while the ack was in
			// flight): drop it, or the record lingers forever.
			slot.takeEarly(seq, rep)
			if p.alive[int(q)] {
				// Piggyback trigger: acks owed to q ride just ahead of
				// this message on the same FIFO channel.
				p.flushPendingTo(q)
				if pr := p.eng.Isend(q, ctx, tag, data, seq, meta); pr != nil {
					preqs = append(preqs, pr)
				}
			}
		case p.alive[int(q)]:
			// Line 9: expect an ack instead of sending directly —
			// unless it already arrived (the other world ran ahead).
			if !slot.takeEarly(seq, rep) {
				needed |= 1 << rep
			}
			if p.opts.SDC {
				p.sendHash(q, ctx, tag, seq, meta, data)
			}
		}
	}

	// An eager send is gated on the slot's earlier entries, a rendezvous
	// send on its own; with neither to wait for the request is ungated.
	own := len(data) > p.eng.EagerLimit
	gated := needed != 0
	if !own {
		gated = slot.head != nil
	}
	if needed != 0 {
		p.retainSend(slot, ctx, tag, dstRank, seq, meta, data, needed)
	}
	if !gated {
		return mpi.NewRequest(c, true, preqs, nil)
	}
	return mpi.NewGatedSend(c, preqs, slot, seq, own)
}

// isendMirror is the MR-MPI baseline: transmit to every alive replica of
// the destination rank; no acks, no retention.
func (p *Replicated) isendMirror(c *mpi.Comm, ctx uint32, dstRank, tag int, data []byte, seq uint64, meta [4]int64) mpi.Request {
	preqs := make([]*mpi.PReq, 0, 2)
	for rep := 0; rep < p.layout.Degree(dstRank); rep++ {
		q := p.layout.Phys(rep, dstRank)
		if !p.alive[int(q)] {
			continue
		}
		if pr := p.eng.Isend(q, ctx, tag, data, seq, meta); pr != nil {
			preqs = append(preqs, pr)
		}
	}
	return mpi.NewRequest(c, true, preqs, nil)
}

// rankOf is the engine's RankOf: a physical process's logical rank.
func (p *Replicated) rankOf(q transport.ProcID) mpi.Rank { return mpi.Rank(p.layout.RankOf(q)) }

// inDests reports whether q is a direct application-message destination
// for dstRank.
func (p *Replicated) inDests(dstRank int, q transport.ProcID) bool {
	for _, d := range p.physicalDests[dstRank] {
		if d == q {
			return true
		}
	}
	return false
}

// --- Receive path ----------------------------------------------------------

// Irecv implements mpi.Protocol. Matching is logical: a receive from rank
// i accepts a message from any replica of rank i — the sequencer has
// already enforced per-rank ordering and uniqueness, so which replica
// physically delivered it is irrelevant (and changes across a failure).
func (p *Replicated) Irecv(c *mpi.Comm, ctx uint32, from mpi.Rank, tag int, buf []byte) mpi.Request {
	var r mpi.Request
	switch {
	case from != mpi.AnySource:
		pr := p.eng.Irecv(mpi.AnyProc, c.BaseRank(from), nil, ctx, tag, buf)
		r = mpi.NewRequest1(c, false, pr, nil)
	case p.mode == ModeLeader:
		r = p.irecvLeaderWildcard(c, ctx, tag, buf)
	default:
		r = mpi.NewRequest1(c, false, p.eng.Irecv(mpi.AnyProc, mpi.AnySource, c, ctx, tag, buf), nil)
	}
	if p.opts.AckOnWait && p.mode != ModeMirror {
		r.HookFinish()
	}
	return r
}

// onArrive is the sequencer: it admits application messages into the
// matching engine in per-(ctx, source rank) sequence order, dropping
// duplicates (possible after a substitute re-send races an in-flight
// original). It always returns false because it performs the injection
// itself.
func (p *Replicated) onArrive(m *transport.Message) bool {
	srcRank := int(m.Meta[mpi.MetaSrcRank])
	rc := p.recvSeq.at(m.Ctx)
	next := rc.next[srcRank]
	switch {
	case m.Seq < next:
		p.discardDuplicate(m)
		return false
	case m.Seq > next:
		p.stash(rc, srcRank, m)
		return false
	}
	// In-order: admit m and the consecutive stashed run it unblocks in a
	// single engine injection pass.
	buf := append(p.injectBuf[:0], m)
	next++
	st := &rc.stash[srcRank]
	for st.n > 0 {
		q := st.pop(next)
		if q == nil {
			break
		}
		buf = append(buf, q)
		next++
	}
	rc.next[srcRank] = next
	if released := len(buf) - 1; released > 0 {
		gSeqStashDepth.Add(-int64(released))
	}
	p.eng.InjectMatchBatch(buf)
	// Unpin the handed-off messages: the buffer is reused across arrivals
	// and would otherwise keep pooled messages reachable.
	for i := range buf {
		buf[i] = nil
	}
	p.injectBuf = buf[:0]
	return false
}

// discardDuplicate drops a redundant copy of an already-admitted message,
// recycling its storage (this protocol owns messages it swallows in
// onArrive). Duplicate rendezvous RTSes still need their handshake
// completed, or the redundant sender's request would never finish.
func (p *Replicated) discardDuplicate(m *transport.Message) {
	// A dead sender's RTS needs no answer, and must not get one: it can
	// arrive AFTER its substitute's re-send was matched (the two travel on
	// different channels), and rebinding the receive to it would move a
	// live handshake onto a process that will never ship the payload.
	if m.Kind == transport.KindRTS && p.alive[int(m.Src)] {
		// If the original handshake broke (sender died between RTS and
		// payload), resume it with this copy; otherwise complete the
		// redundant transfer into a sink. Either way the envelope is
		// consumed within the call.
		if !p.eng.RebindRTS(m) {
			p.eng.SinkRTS(m)
		}
	}
	transport.FreeMessage(m)
}

// stash inserts an out-of-order arrival into the rank's ring (O(1); the
// occupied-slot check doubles as duplicate detection).
func (p *Replicated) stash(rc *seqCtx, srcRank int, m *transport.Message) {
	if !rc.stash[srcRank].insert(rc.next[srcRank], m) {
		p.discardDuplicate(m) // duplicate of a stashed message
		return
	}
	gSeqStashDepth.Add(1)
}

// stashTotal counts messages currently held back by the sequencer (tests
// and quiescence checks).
func (p *Replicated) stashTotal() int { return p.recvSeq.stashTotal() }

// onRecvComplete implements lines 15–17 of Algorithm 1: on the
// irecvComplete event, acknowledge the message to every other alive
// replica of the source rank. In mirror mode there are no acks. With the
// AckOnWait ablation the ack is deferred to application-level completion
// (Irecv marks the request with HookFinish, and the engine's OnFinish
// hook, sendAcksFor, acks at Wait time).
func (p *Replicated) onRecvComplete(pr *mpi.PReq) {
	if p.mode == ModeMirror {
		return
	}
	if p.opts.SDC {
		p.recordLocalHash(pr)
	}
	if p.opts.AckOnWait {
		return
	}
	p.sendAcksFor(pr)
}

// --- Control messages ------------------------------------------------------

func (p *Replicated) onCtl(m *transport.Message) {
	switch m.Tag {
	case detect.TagFailure:
		p.onFailure(transport.ProcID(m.Meta[0]))
	case detect.TagRecovered:
		p.onRecovered(transport.ProcID(m.Meta[0]), m.Data)
	case detect.TagDecision:
		p.onDecision(m)
	case detect.TagLogTruncate:
		p.onLogTruncate(m)
	}
}
