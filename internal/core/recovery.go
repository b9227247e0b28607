package core

import (
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Recovery of a failed replica, for replication degree two (§3.4 of the
// paper). The substitute "forks" the replacement at a quiescent point (no
// pending requests, Quiesce called): its protocol state is the replay
// state CaptureReplayState encodes, which the replacement installs with
// RestoreReplayState — the same capture a localized relaunch restores from
// a checkpoint — plus an application-provided snapshot. A capture that
// meets buffered rendezvous traffic is refused, and the fork waits for a
// later step. The substitute then broadcasts an in-band notification;
// because channels are FIFO, each peer knows that exactly the messages the
// substitute had not acknowledged before the notification must be replayed
// to the new replica, and that acknowledgements to the new replica resume
// with the first message received after the notification.

// BroadcastRecovered announces the revived replica to every alive process
// through in-band FIFO control messages. The network endpoint must already
// be revived. The substitute's own bookkeeping is updated as if it had
// received the notification.
//
// The notification carries the revived process's receive frontier — this
// process's own: the fork's capture copies it, a relaunched logging rank
// has just restored it. Everything below the frontier is a message the revived
// process will never consume, hence never acknowledge, again (see
// ackBelowFrontier).
func (p *Replicated) BroadcastRecovered(revived transport.ProcID) {
	// Flush coalesced acks first: every acknowledgement this process
	// emitted logically before the fork must precede the notification on
	// its FIFO channels (the paper's §3.4 ordering argument).
	if p.coalesce {
		p.flushAcks(true)
	}
	frontier := p.LogFrontier()
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
