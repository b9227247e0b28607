package core

import (
	"fmt"

	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Recovery of a failed replica, for replication degree two (§3.4 of the
// paper). The substitute "forks" the replacement: in this in-process
// simulation the fork is a clone of the protocol state plus an
// application-provided snapshot, taken at a quiescent point (no pending
// requests). The substitute then broadcasts an in-band notification;
// because channels are FIFO, each peer knows that exactly the messages the
// substitute had not acknowledged before the notification must be replayed
// to the new replica, and that acknowledgements to the new replica resume
// with the first message received after the notification.

// CloneState is the protocol state a recovered replica inherits from its
// substitute at the fork point.
type CloneState struct {
	Revived    transport.ProcID
	SendSeq    map[seqKey]uint64
	RecvNext   map[seqKey]uint64
	Pending    map[seqKey][]*transport.Message
	Unexpected []*transport.Message
}

// ForkFor snapshots this (substitute) process's protocol state for the
// replica being recovered. It must be called at a quiescent point: every
// send and receive request completed and, since a completed eager send may
// still await its own acks, Quiesce called. It must be followed by
// BroadcastRecovered before any further application send.
func (p *Replicated) ForkFor(revived transport.ProcID) *CloneState {
	if p.layout.Degree(p.myRank) != 2 {
		panic("core: recovery requires replication degree 2 (paper §3.4)")
	}
	if p.layout.RankOf(revived) != p.myRank {
		panic("core: only the substitute (same rank) can fork a replacement")
	}
	if p.retained != 0 {
		panic(fmt.Sprintf("core: fork at non-quiescent point: %d retained sends", p.retained))
	}
	cs := &CloneState{
		Revived:  revived,
		SendSeq:  p.sendSeq.snapshot(),
		RecvNext: p.recvSeq.snapshot(),
		Pending:  make(map[seqKey][]*transport.Message),
	}
	p.recvSeq.forEachStash(func(ctx uint32, rank int, st *seqStash) {
		// Deep-copy: the substitute keeps consuming (and recycling) its
		// own stashed messages, while the clones travel to the
		// replacement process — they must not share pooled storage.
		ms := st.collect(nil)
		for i, m := range ms {
			ms[i] = m.Clone()
		}
		cs.Pending[seqKey{ctx, rank}] = ms
	})
	cs.Unexpected = p.eng.UnexpectedMessages()
	return cs
}

// BroadcastRecovered announces the revived replica to every alive process
// through in-band FIFO control messages. The network endpoint must already
// be revived. The substitute's own bookkeeping is updated as if it had
// received the notification.
//
// The notification carries the revived process's receive frontier — this
// process's own: the fork state copies it, a relaunched logging rank has
// just restored it. Everything below the frontier is a message the revived
// process will never consume, hence never acknowledge, again (see
// ackBelowFrontier).
func (p *Replicated) BroadcastRecovered(revived transport.ProcID) {
	// Flush coalesced acks first: every acknowledgement this process
	// emitted logically before the fork must precede the notification on
	// its FIFO channels (the paper's §3.4 ordering argument).
	if p.coalesce {
		p.flushAcks(true)
	}
	frontier := p.recvFrontier()
	for i := 0; i < p.layout.Procs(); i++ {
		q := transport.ProcID(i)
		if q == p.proc.ID() || q == revived || !p.alive[int(q)] {
			continue
		}
		p.eng.Endpoint().Send(&transport.Message{
			Dst:  q,
			Kind: transport.KindCtl,
			Tag:  detect.TagRecovered,
			Meta: [4]int64{int64(revived)},
			Data: frontier,
		})
	}
	p.onRecovered(revived, nil)
}

// Restore installs the forked state on the freshly constructed protocol
// layer of the recovered replica.
func (p *Replicated) Restore(cs *CloneState) {
	if cs.Revived != p.proc.ID() {
		panic("core: restoring a clone state forked for a different process")
	}
	p.sendSeq.load(cs.SendSeq)
	p.recvSeq.load(cs.RecvNext)
	for k, v := range cs.Pending {
		rc := p.recvSeq.at(k.ctx)
		for _, m := range v {
			// Fork-state stashes are strictly ahead of the counters; guard
			// anyway so a malformed clone cannot underflow the ring offset.
			if m.Seq > rc.next[k.rank] && rc.stash[k.rank].insert(rc.next[k.rank], m) {
				gSeqStashDepth.Add(1)
			}
		}
	}
	p.eng.SeedUnexpected(cs.Unexpected)
	p.alive[int(p.proc.ID())] = true
}

// onRecovered processes the recovery notification for process q, whose
// encoded receive frontier it carries (nil on the announcer's own call).
// FIFO ordering w.r.t. the substitute's prior acknowledgements is what
// makes the retained-entry replay exactly the set of messages the fork
// state does not contain.
func (p *Replicated) onRecovered(q transport.ProcID, frontier []byte) {
	if q == p.proc.ID() {
		return
	}
	p.alive[int(q)] = true
	qRank := p.layout.RankOf(q)
	qRep := p.layout.RepOf(q)
	// Like detect: the detail names only the recovered process, so the
	// survivors' independent observations collapse in the chain render.
	rev := obs.Ev(obs.StageRecovered, "recovery notification processed")
	rev.Proc, rev.Rank, rev.Rep = int(q), qRank, qRep
	obs.DefaultTrace.Emit(rev)

	if qRank == p.myRank {
		// A replica of my own rank is back: it handles its own sends
		// again; if I was substituting for its world, stop duplicating.
		p.substitute[qRep] = qRep
		if qRep != p.myRep {
			for j := 0; j < p.layout.N; j++ {
				if qRep < p.layout.Degree(j) {
					p.removeDest(j, p.layout.Phys(qRep, j))
				}
			}
		}
		return
	}
	p.ackBelowFrontier(q, frontier)

	if qRep < len(p.substitute) && p.substitute[qRep] == p.myRep {
		// q lives in a world I emit into — my own (myRep == qRep), or one
		// I took over as substitute. Restore it as my direct destination
		// and nominal source, and replay every retained message for that
		// rank — precisely those the substitute had not acknowledged
		// before the notification. For a logging-enabled rank relaunched
		// by the localized-replay rung, additionally re-send the message
		// log: retention is empty for degree-1 destinations (no acks gate
		// those sends), so the log is the only replay source.
		p.physicalSrc[qRank] = q
		if !p.inDests(qRank, q) {
			p.physicalDests[qRank] = append(p.physicalDests[qRank], q)
		}
		p.replayRetained(qRank, q)
		if p.LogEnabled(qRank) {
			p.replayLog(qRank, q)
		}
	}
	// Processes in other worlds resume acknowledging to q automatically
	// now that alive[q] holds, and only for messages completed after
	// this notification — the paper's FIFO argument.
}

// ackBelowFrontier counts every send of this rank to q's rank that lies
// below q's announced receive frontier and is not posted yet as
// acknowledged by q. q holds those messages already: its restored state
// consumed them — no reception completes for them again, so no ack is sent
// — or buffers them, and their ack, when it comes, is a duplicate. And
// onFailure made this process forget the acks q's previous incarnation did
// send ahead of the send. The worlds may be a
// whole checkpoint window apart (nothing gates a ring whose destination
// ranks are down to one replica), so such sends are many, and each would
// wait for its ack forever. They get the early-ack record Isend consumes.
// Sends posted earlier need nothing: q's failure notification, always
// processed before this one, cleared what they expected of q, and none
// posted while q was down expects anything. A frontier that does not decode
// is ignored, like a truncation ack's.
func (p *Replicated) ackBelowFrontier(q transport.ProcID, frontier []byte) {
	recs, err := DecodeSeqRecs(frontier)
	if err != nil {
		return
	}
	qRank, qRep := p.layout.RankOf(q), p.layout.RepOf(q)
	for _, r := range recs {
		if r.Rank != p.myRank {
			continue
		}
		sc := p.sendSeq.at(r.Ctx)
		for seq := sc.next[qRank]; seq < r.Next; seq++ {
			sc.ret[qRank].noteEarly(seq, qRep)
		}
	}
}

// replayRetained re-sends every retained entry destined to dstRank to the
// recovered process q, in (ctx, sequence) order, leaving the entries'
// expected ack sets unchanged (they still await the substitute world's
// acks).
func (p *Replicated) replayRetained(dstRank int, q transport.ProcID) {
	n := 0
	for _, sc := range p.sendSeq.sortedCtxs() {
		for e := sc.ret[dstRank].head; e != nil; e = e.next {
			// Copied for the same aliasing reason as resendUnackedTo: the
			// entry may complete (freeing the app buffer) while the replay's
			// rendezvous transfer is still in flight.
			p.eng.Isend(q, e.ctx, e.tag, append([]byte(nil), e.data...), e.seq, e.meta)
			n++
		}
	}
	mReplayedMsgs.Add(uint64(n))
}
