package transport

import "sync"

// Landing buffers: how a rendezvous payload crosses the socket wire without
// a user-space copy on the receiving side.
//
// When the PML matches an RTS it posts the receive buffer under the
// exchange's XID (Endpoint.PostLanding) BEFORE the CTS leaves, so the
// registration is always in place by the time the payload can arrive. The
// wire's frame reader, on parsing a KindData header whose (destination,
// XID) has a registration, CLAIMS it, reads the payload from the socket
// straight into the posted buffer, and releases the claim:
//
//   - payload complete: the registration is consumed, and only the envelope
//     is injected, marked landed with the length the sender shipped
//     (Message.Landed) — the engine completes the receive without touching
//     the bytes;
//   - connection failed mid-payload: the claim ends, the registration stays
//     posted and the frame is never delivered. The partly written buffer is
//     legal (the buffer of an incomplete receive is undefined) and the
//     re-send — the sender's redial, or a substitute's duplicate RTS after
//     a rebind — overwrites it.
//
// A payload longer than the posted buffer is cut at len(buf): the excess is
// discarded from the stream and the envelope still reports the sender's
// length, which is how MPI_ERR_TRUNCATE reads. A zero-length registration is
// therefore a sink — the whole payload is discarded with no buffer at all.
//
// Frames that arrive on a path that cannot land (ring scanner, in-process
// wire, delayed sends) are delivered with a pooled payload as before; the
// engine copies and withdraws the unclaimed registration. Withdrawing a
// CLAIMED registration waits for the claim to end, so once WithdrawLanding
// returns no reader writes the buffer — two exchanges rebound onto one
// buffer never overlap.

// landing is one posted receive buffer.
type landing struct {
	xid     uint64
	buf     []byte
	claimed bool // a frame reader is writing buf
}

// landings is one hosted destination's registrations: a handful at most
// (its matched, incomplete rendezvous receives), so a scanned slice.
type landings struct {
	mu   sync.Mutex // sdr:lockrank landing
	idle sync.Cond  // on mu; signalled whenever a claim ends
	regs []landing  // guarded by mu
}

// landingTable holds the registrations of the processes [lo, lo+len(dsts))
// a wire hosts, dense per destination so hosted processes never share a
// lock.
type landingTable struct {
	lo   ProcID
	dsts []landings
}

func newLandingTable(lo, hi ProcID) *landingTable {
	t := &landingTable{lo: lo, dsts: make([]landings, hi-lo)}
	for i := range t.dsts {
		t.dsts[i].idle.L = &t.dsts[i].mu
	}
	return t
}

// at returns dst's registrations, nil when the table does not host dst —
// or when there is no table: a network on the in-process wire has none, and
// posting to it, withdrawing from it and dropping it all do nothing.
func (t *landingTable) at(dst ProcID) *landings {
	if t == nil || dst < t.lo || int(dst-t.lo) >= len(t.dsts) {
		return nil
	}
	return &t.dsts[dst-t.lo]
}

// findLocked returns the index of xid's registration, -1 if none.
func (ls *landings) findLocked(xid uint64) int {
	for i := range ls.regs {
		if ls.regs[i].xid == xid {
			return i
		}
	}
	return -1
}

// removeLocked deletes registration i (order is irrelevant).
func (ls *landings) removeLocked(i int) {
	last := len(ls.regs) - 1
	ls.regs[i] = ls.regs[last]
	ls.regs[last] = landing{} // unpin the buffer
	ls.regs = ls.regs[:last]
}

// withdrawLocked removes xid's registration, first waiting out a reader
// that is writing its buffer (Cond.Wait parks with mu released).
func (ls *landings) withdrawLocked(xid uint64) {
	i := ls.findLocked(xid)
	for i >= 0 && ls.regs[i].claimed {
		ls.idle.Wait()
		i = ls.findLocked(xid)
	}
	if i >= 0 {
		ls.removeLocked(i)
	}
}

// post registers buf as the landing buffer of exchange xid at dst,
// replacing any earlier registration under the same XID.
func (t *landingTable) post(dst ProcID, xid uint64, buf []byte) {
	ls := t.at(dst)
	if ls == nil {
		return
	}
	ls.mu.Lock()
	ls.withdrawLocked(xid)
	ls.regs = append(ls.regs, landing{xid: xid, buf: buf})
	ls.mu.Unlock()
}

// withdraw removes xid's registration at dst if it is still posted. When it
// returns, no reader holds the buffer.
func (t *landingTable) withdraw(dst ProcID, xid uint64) {
	ls := t.at(dst)
	if ls == nil {
		return
	}
	ls.mu.Lock()
	ls.withdrawLocked(xid)
	ls.mu.Unlock()
}

// drop withdraws every registration at dst (the process was revived: its
// old incarnation's receives are gone).
func (t *landingTable) drop(dst ProcID) {
	ls := t.at(dst)
	if ls == nil {
		return
	}
	ls.mu.Lock()
	for len(ls.regs) > 0 {
		ls.withdrawLocked(ls.regs[0].xid)
	}
	ls.mu.Unlock()
}

// claim hands the calling reader the buffer posted for (dst, xid), if there
// is one and no other reader holds it. The reader must end the claim with
// release.
func (t *landingTable) claim(dst ProcID, xid uint64) (buf []byte, ok bool) {
	ls := t.at(dst)
	if ls == nil {
		return nil, false
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	i := ls.findLocked(xid)
	if i < 0 || ls.regs[i].claimed {
		return nil, false
	}
	ls.regs[i].claimed = true
	return ls.regs[i].buf, true
}

// release ends a claim: the registration is consumed when the payload
// landed whole, and stays posted (for the re-send) when it did not.
func (t *landingTable) release(dst ProcID, xid uint64, landed bool) {
	ls := t.at(dst)
	ls.mu.Lock()
	if i := ls.findLocked(xid); i >= 0 {
		if landed {
			ls.removeLocked(i)
		} else {
			ls.regs[i].claimed = false
		}
	}
	ls.idle.Broadcast()
	ls.mu.Unlock()
}
