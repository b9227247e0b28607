package core

import (
	"time"

	"repro/internal/mpi"
	"repro/internal/transport"
)

// Acknowledgement coalescing.
//
// Algorithm 1 sends one acknowledgement per (received message, other
// replica) on the irecvComplete event. That is semantically necessary —
// a sender deletes a retained message only once every other alive replica
// of the destination rank has confirmed reception — but nothing requires
// each confirmation to be its own wire message. This file batches the
// acks a process owes each destination and ships them as a single KindAck
// message (payload format: transport.AckRec records), collapsing the
// per-message ack traffic that Stats.AckMsgs() counts.
//
// A batch for destination q is flushed when:
//
//   - an outbound application message to q is about to be sent (the ack
//     batch rides just ahead of it on the same FIFO channel),
//   - the batch reaches ackBatchMax records,
//   - engine progress finds the batch older than ackFlushDelay (the age
//     runs from the first unforced progress pass that sees the batch, so
//     queueing an ack never reads the clock), or
//   - the process is about to block in WaitUntil (force flush — this is
//     the liveness rule: a process never sleeps on acks it still owes,
//     so a peer's ack-gated MPI_Wait always unblocks).
//
// Failure interplay: pending acks to a process that fails are dropped
// (equivalent to the discrete acks falling off the wire, which the
// failure handling already tolerates), and BroadcastRecovered force-
// flushes first so the paper's FIFO argument — acknowledgements sent
// before the recovery notification concern messages contained in the fork
// state — is preserved verbatim.
//
// On the sender's side an acknowledgement clears the acker's bit on the
// retained entry (retention.go). What a send request waits for departs from
// the letter of Algorithm 1 by one message per destination — an eager send
// completes on its predecessor's acks, not its own — and is described
// there; the acks themselves, and the rule that a payload is kept until
// every alive replica of the destination rank confirmed it, are unchanged.

// ackQueue accumulates the acknowledgements owed to one destination.
type ackQueue struct {
	recs   []transport.AckRec
	since  time.Time // when an unforced flush pass first saw the batch; zero until then
	listed bool      // the destination is in Replicated.ackDirty
}

// initCoalescing configures the coalescing state (called from
// NewReplicated for non-mirror modes unless disabled).
func (p *Replicated) initCoalescing() {
	p.coalesce = true
	p.ackPend = make([]ackQueue, p.layout.Procs())
	p.eng.OnFlush = p.flushAcks
}

// queueAck records one acknowledgement owed to q, flushing if the batch
// is full.
func (p *Replicated) queueAck(q transport.ProcID, ctx uint32, seq uint64) {
	aq := &p.ackPend[q]
	aq.recs = append(aq.recs, transport.AckRec{Ctx: ctx, Seq: seq})
	if len(aq.recs) >= ackBatchMax {
		p.flushAcksTo(q, aq)
		return
	}
	if !aq.listed {
		aq.listed = true
		p.ackDirty = append(p.ackDirty, q)
	}
}

// flushAcks ships pending batches: all of them when forced (about to
// block), otherwise only those an earlier unforced pass stamped at least
// the flush delay ago. Installed as the engine's OnFlush hook.
func (p *Replicated) flushAcks(force bool) {
	if len(p.ackDirty) == 0 {
		return
	}
	var now time.Time
	keep := p.ackDirty[:0]
	for _, q := range p.ackDirty {
		aq := &p.ackPend[q]
		if len(aq.recs) > 0 && !force {
			if now.IsZero() {
				now = time.Now()
			}
			if aq.since.IsZero() {
				aq.since = now
			}
			if now.Sub(aq.since) < ackFlushDelay {
				keep = append(keep, q)
				continue
			}
		}
		p.flushAcksTo(q, aq)
		aq.listed = false
	}
	p.ackDirty = keep
}

// flushPendingTo flushes the batch owed to q, if any — the piggyback
// trigger, called just before an outbound application message to q.
func (p *Replicated) flushPendingTo(q transport.ProcID) {
	if p.coalesce {
		p.flushAcksTo(q, &p.ackPend[q])
	}
}

// flushAcksTo emits one KindAck message carrying every pending record for
// q. A single record uses the legacy envelope-only format; larger batches
// encode the records into a pooled payload.
func (p *Replicated) flushAcksTo(q transport.ProcID, aq *ackQueue) {
	recs := aq.recs
	if len(recs) == 0 {
		return
	}
	if len(recs) == 1 {
		p.sendAckNow(q, recs[0].Ctx, recs[0].Seq, -1)
	} else {
		p.ackMsgs.Inc()
		p.acksCoalesced.Add(uint64(len(recs)))
		buf := transport.GetBuf(p.proc.ID(), transport.AckBatchBytes(len(recs)))
		buf = transport.EncodeAckRecs(buf[:0], recs)
		var m transport.Message
		m.Dst = q
		m.Kind = transport.KindAck
		m.Meta = [4]int64{-1, int64(p.myRank), int64(p.myRep), int64(len(recs))}
		m.SetPooledData(buf)
		p.eng.Endpoint().Send(&m)
	}
	aq.recs = aq.recs[:0]
	aq.since = time.Time{}
}

// dropAcksFor discards the batch owed to a failed process: the discrete
// acks would have fallen off the wire anyway (fail-stop).
func (p *Replicated) dropAcksFor(dead transport.ProcID) {
	if p.coalesce {
		aq := &p.ackPend[dead]
		aq.recs, aq.since = aq.recs[:0], time.Time{}
	}
}

// sendAckNow emits one discrete acknowledgement in the legacy format:
// ctx/seq in the envelope, Meta = [srcRank, ackerRank, ackerWorld, 1].
func (p *Replicated) sendAckNow(q transport.ProcID, ctx uint32, seq uint64, srcRank int) {
	p.ackMsgs.Inc()
	p.eng.Endpoint().Send(&transport.Message{
		Dst:  q,
		Kind: transport.KindAck,
		Ctx:  ctx,
		Seq:  seq,
		Meta: [4]int64{int64(srcRank), int64(p.myRank), int64(p.myRep), 1},
	})
}

// onAck processes an acknowledgement message: a batch when a payload is
// present, the legacy single-ack format otherwise. Corrupt batches are
// dropped, never panicked on.
func (p *Replicated) onAck(m *transport.Message) {
	if m.Len() > 0 {
		recs, err := transport.DecodeAckRecs(m.Data)
		if err != nil {
			return
		}
		for _, r := range recs {
			p.applyAck(r.Ctx, r.Seq, m.Src)
		}
		return
	}
	p.applyAck(m.Ctx, m.Seq, m.Src)
}

// applyAck marks one expected acknowledgement from src as received and
// releases the retention entry once all have arrived (opening the gates
// that wait on it). The slot's rank is the acker's own rank — derived from
// its physical ID, identical across the discrete and batched formats.
func (p *Replicated) applyAck(ctx uint32, seq uint64, src transport.ProcID) {
	ackerRank, rep := p.layout.RankOf(src), p.layout.RepOf(src)
	sc := p.sendSeq.at(ctx)
	slot := &sc.ret[ackerRank]
	var prev *sendEntry
	for e := slot.head; e != nil && e.seq <= seq; prev, e = e, e.next {
		if e.seq == seq {
			if e.needed&(1<<rep) != 0 {
				p.ackEntry(slot, prev, e, rep)
			}
			return
		}
	}
	// No entry: the ack is *early* (our replica has not yet posted the
	// acknowledged send: seq at or beyond our counter) or *late* (entry
	// already completed or converted after a failure). Early acks are
	// remembered and consumed by Isend; late ones are dropped.
	if seq >= sc.next[ackerRank] {
		slot.noteEarly(seq, rep)
	}
}

// sendAcksFor emits (or queues) the acknowledgements for one completed
// reception: to every other alive replica of the source rank (lines 15–17
// of Algorithm 1).
func (p *Replicated) sendAcksFor(pr *mpi.PReq) {
	srcRank := int(pr.Meta(mpi.MetaSrcRank))
	senderWorld := int(pr.Meta(mpi.MetaWorld))
	ctx, seq := pr.Ctx(), pr.Seq()
	for rep := 0; rep < p.layout.Degree(srcRank); rep++ {
		if rep == senderWorld {
			continue
		}
		q := p.layout.Phys(rep, srcRank)
		if !p.alive[int(q)] {
			continue
		}
		if p.coalesce {
			p.queueAck(q, ctx, seq)
		} else {
			p.sendAckNow(q, ctx, seq, srcRank)
		}
	}
}
