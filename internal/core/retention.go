package core

import "repro/internal/transport"

// The retention table.
//
// Algorithm 1 keeps every sent message until each other alive replica of
// the destination rank has acknowledged it, and completes the send request
// at that moment. This implementation keeps the first half to the letter
// and relaxes the second by one message per destination:
//
//   - an eager send #k to a (ctx, destination rank) goes on the wire at
//     once and its request completes when no earlier send to that
//     destination is still unacknowledged — or when #k itself is, whichever
//     comes first, so a receiver that takes tags out of order cannot stall
//     it. In steady state the ack a Send needs arrived during the previous
//     round trip, and the sender does not park for it;
//   - a rendezvous send aliases the application buffer, so its request
//     completes only when the send itself is acknowledged, as in the paper.
//
// The invariants kept: a payload is retained until every alive replica of
// the destination rank confirmed it, and after a blocking Send returns at
// most one message per destination is unconfirmed. While both replicas of
// every rank are alive, the two worlds therefore drift by at most one
// message per destination, which is what lets a substitute take over before
// its rank's second replica can run ahead of a failure. That bound ends at
// the first substitution: sends into the survivor's world wait for no ack,
// one world can run a checkpoint window ahead (613 steps against 800 have
// been seen), and without CheckpointDir nothing bounds it — early below
// then grows with the drift (ROADMAP item 4).
//
// Because of the fault-free bound the bookkeeping is a slot per (ctx,
// destination rank) in the send-side seqTable: a short seq-ordered chain of
// entries, each with a bitmask of the replicas still to acknowledge, plus
// the acks that arrived before this replica posted the send they confirm.
// Entries are recycled through a per-process free list.

// sendEntry is one retained application message (Algorithm 1's sendReq
// bookkeeping). For eager-sized sends the payload is a pooled copy
// (pooled=true), recycled when the entry is released; rendezvous entries
// alias the application buffer, which MPI semantics freeze until the
// ack-gated Wait completes.
type sendEntry struct {
	ctx     uint32
	tag     int
	dstRank int
	seq     uint64
	data    []byte
	pooled  bool
	meta    [4]int64
	needed  uint64     // bit rep: replica rep of dstRank has not acknowledged yet
	next    *sendEntry // slot chain in seq order; free-list link once released
}

// earlyAck records acknowledgements for a send this replica has not posted
// yet: replicas may diverge temporarily (§3.1), so the other world's
// receiver can complete — and acknowledge — a logical message first.
type earlyAck struct {
	seq  uint64
	reps uint64 // bit rep: replica rep of the destination rank acknowledged
}

// retSlot is the retention state of one (ctx, destination rank): the
// unacknowledged entries in ascending seq order and the early acks. At rest
// the chain holds at most one eager entry; Isend bursts and rendezvous
// sends lengthen it for as long as their requests are outstanding.
type retSlot struct {
	head, tail *sendEntry
	early      []earlyAck
}

// GateOpen implements mpi.Gate for the send numbered seq of this slot.
// Entries carry their seq and leave the chain when acknowledged, so a
// recycled entry can neither satisfy nor block a stale gate.
func (s *retSlot) GateOpen(seq uint64, own bool) bool {
	lower := false
	for e := s.head; e != nil && e.seq <= seq; e = e.next {
		if e.seq == seq {
			return !own && !lower
		}
		lower = true
	}
	return true // seq itself is acknowledged
}

// push appends e, whose seq exceeds every seq in the chain (sequence
// numbers are handed out in posting order).
func (s *retSlot) push(e *sendEntry) {
	if s.tail == nil {
		s.head = e
	} else {
		s.tail.next = e
	}
	s.tail = e
}

// unlink removes e, whose predecessor in the chain is prev (nil at the head).
func (s *retSlot) unlink(prev, e *sendEntry) {
	if prev == nil {
		s.head = e.next
	} else {
		prev.next = e.next
	}
	if s.tail == e {
		s.tail = prev
	}
}

// noteEarly records an early ack from replica rep for seq.
func (s *retSlot) noteEarly(seq uint64, rep int) {
	for i := range s.early {
		if s.early[i].seq == seq {
			s.early[i].reps |= 1 << rep
			return
		}
	}
	s.early = append(s.early, earlyAck{seq: seq, reps: 1 << rep})
}

// takeEarly consumes the early ack from replica rep for seq, reporting
// whether one was recorded.
func (s *retSlot) takeEarly(seq uint64, rep int) bool {
	for i := range s.early {
		if s.early[i].seq == seq {
			had := s.early[i].reps&(1<<rep) != 0
			s.early[i].reps &^= 1 << rep
			s.dropEmptyEarly(i)
			return had
		}
	}
	return false
}

// dropEmptyEarly removes record i if no replica is left in it.
func (s *retSlot) dropEmptyEarly(i int) {
	if s.early[i].reps == 0 {
		last := len(s.early) - 1
		s.early[i] = s.early[last]
		s.early = s.early[:last]
	}
}

// retainSend records an unacknowledged send in its slot.
func (p *Replicated) retainSend(s *retSlot, ctx uint32, tag, dstRank int, seq uint64, meta [4]int64, data []byte, needed uint64) {
	e := p.freeEntries
	if e == nil {
		e = new(sendEntry)
	} else {
		// ackEntry zeroed a recycled entry but for its free-list link.
		p.freeEntries, e.next = e.next, nil
	}
	// Field by field: assigning a composite literal copies it through memory.
	e.ctx, e.tag, e.dstRank, e.seq, e.meta, e.needed = ctx, tag, dstRank, seq, meta, needed
	// Eager-sized payloads are copied into a pooled buffer, recycled when
	// the entry is released; rendezvous payloads alias the application
	// buffer, which MPI semantics freeze until Wait — and that Wait is
	// gated on this entry's own acks.
	if len(data) <= p.eng.EagerLimit {
		e.data = transport.GetBuf(p.proc.ID(), len(data))
		copy(e.data, data)
		e.pooled = true
	} else {
		e.data = data
	}
	s.push(e)
	p.retained++
}

// ackEntry clears replica rep's bit on e and, once nobody is left to
// acknowledge it, releases e (prev is its predecessor in s). It reports
// whether e was released.
func (p *Replicated) ackEntry(s *retSlot, prev, e *sendEntry, rep int) bool {
	e.needed &^= 1 << rep
	if e.needed != 0 {
		return false
	}
	s.unlink(prev, e)
	if e.pooled {
		transport.FreeBuf(e.data)
	}
	*e = sendEntry{next: p.freeEntries}
	p.freeEntries = e
	p.retained--
	return true
}

// ackSlot clears replica rep's bit on every entry of s that still expects
// its ack, in seq order, releasing the entries that completes. visit, if
// non-nil, sees each such entry first (the take-over re-send).
func (p *Replicated) ackSlot(s *retSlot, rep int, visit func(*sendEntry)) {
	var prev *sendEntry
	for e := s.head; e != nil; {
		next := e.next
		if e.needed&(1<<rep) != 0 {
			if visit != nil {
				visit(e)
			}
			if p.ackEntry(s, prev, e, rep) {
				e = next
				continue
			}
		}
		prev, e = e, next
	}
}
