package mpi

import (
	"fmt"
	"runtime"
	"slices"
)

// Gate is a protocol's completion gate: a request with one completes when
// its PML requests have and the gate is open. It is an interface rather
// than a closure so that gating a send allocates nothing — the request
// carries the two arguments. SDR-MPI's retention slot is its implementer
// (§3.2: a send request completes once the acks it depends on have been
// collected).
type Gate interface {
	// GateOpen reports whether the request built with (seq, own) may
	// complete. For a retention slot, seq numbers the send and own selects
	// the strict form — seq itself must be acknowledged — which rendezvous
	// sends need because their payload is the user's buffer.
	GateOpen(seq uint64, own bool) bool
}

// ackYieldRounds is how many times a waiter on a closed ack gate hands its
// P over before it parks. The ack is produced by a runnable goroutine one
// hop away, so a few yields usually collect it without a park/unpark round
// trip, which would also migrate this process to another P. The count
// stays small because each round is a pass through the scheduler, which a
// saturated host with the acker a socket hop away pays for and gets
// nothing back (the sweep behind 8 is in CHANGES.md, PR 16).
const ackYieldRounds = 8

// Request is an application-level request, the object MPI_Isend/MPI_Irecv
// return. A protocol composes it from one or more PML requests plus an
// optional completion gate (SDR-MPI gates send completion on replication
// acks — §3.2: "we wait until all acks have been collected before
// completing a send request"). Protocols return it by value and no field
// points into the request itself, so a blocking call keeps it in its own
// frame: only the PML requests underneath reach the heap. It is eight
// words with no array longer than one, so Go's register ABI passes and
// returns it in registers rather than copying it through memory.
type Request struct {
	comm *Comm

	// pr0 and pr1 hold up to two PML requests (nil: unused) — two fields,
	// not an array, which would go through memory; more takes a
	// rendezvous send's fan-out beyond two.
	pr0, pr1 *PReq
	more     *[]*PReq

	// gate, when set, also gates completion, on (gateSeq, reqGateOwn). A
	// gate may depend on acknowledgements, so waiting on a gated request
	// is ack-interested; reqAckGate marks the gates that depend on nothing
	// else, whose waiters yield before they park.
	gate    Gate
	gateSeq uint64

	flags reqFlags
}

// reqFlags are a Request's booleans, in one byte.
type reqFlags uint8

const (
	reqSend    reqFlags = 1 << iota // a send request
	reqGateOwn                      // GateOpen's own argument
	reqAckGate                      // the gate depends on acks alone
	reqHook                         // Engine.OnFinish still to run (HookFinish)
	reqNull                         // an operation on ProcNull
)

// sendFlag is reqSend for a send request.
func sendFlag(send bool) reqFlags {
	if send {
		return reqSend
	}
	return 0
}

// NewRequest assembles an application request; protocols call this. The
// PML requests are copied into the request (the slice spills only beyond
// two), so the caller's slice does not escape. With none — every send was
// eager — the request is sent already.
func NewRequest(c *Comm, send bool, preqs []*PReq, gate Gate) Request {
	r := Request{comm: c, gate: gate, flags: sendFlag(send)}
	if len(preqs) > 0 {
		r.pr0 = preqs[0]
	}
	if len(preqs) > 1 {
		r.pr1 = preqs[1]
	}
	if len(preqs) > 2 {
		more := slices.Clone(preqs[2:])
		r.more = &more
	}
	return r
}

// NewRequest1 assembles a request over at most one PML request (nil for an
// eager send) — the common case for every point-to-point operation.
func NewRequest1(c *Comm, send bool, pr *PReq, gate Gate) Request {
	return Request{comm: c, pr0: pr, gate: gate, flags: sendFlag(send)}
}

// NewGatedSend assembles a send request whose completion also waits for
// the acknowledgements g.GateOpen(seq, own) stands for.
func NewGatedSend(c *Comm, preqs []*PReq, g Gate, seq uint64, own bool) Request {
	r := NewRequest(c, true, preqs, g)
	r.gateSeq = seq
	r.flags |= reqAckGate
	if own {
		r.flags |= reqGateOwn
	}
	return r
}

// HookFinish marks a receive request whose application-level completion
// the protocol wants to see: the first Wait or Test that finds it complete
// runs Engine.OnFinish with its PML request.
func (r *Request) HookFinish() { r.flags |= reqHook }

// sent reports whether every underlying PML request is complete.
func (r *Request) sent() bool {
	if (r.pr0 != nil && !r.pr0.done) || (r.pr1 != nil && !r.pr1.done) {
		return false
	}
	if r.more != nil {
		for _, p := range *r.more {
			if !p.done {
				return false
			}
		}
	}
	return true
}

// ready reports whether every underlying PML request is complete and the
// protocol gate (if any) is satisfied.
func (r *Request) ready() bool {
	if !r.sent() {
		return false
	}
	return r.gate == nil || r.gate.GateOpen(r.gateSeq, r.flags&reqGateOwn != 0)
}

// finish computes the application status after completion, from the
// receive's PML request (a receive has one: only a send's fan-out spills
// into more), whose fields no longer change once it is done — so every
// call returns the same status. The OnFinish hook runs on the first call,
// unless the receive was cancelled.
func (r *Request) finish() Status {
	switch {
	case r.flags&reqSend != 0:
		return Status{}
	case r.flags&reqNull != 0:
		return Status{Source: ProcNull, Tag: AnyTag}
	}
	p := r.pr0
	if p == nil || p.cancelled {
		return Status{}
	}
	if p.truncated {
		panic(fmt.Sprintf("mpi: truncation on receive (tag %d, %d bytes into %d buffer)",
			p.tag, p.count, len(p.buf)))
	}
	if r.flags&reqHook != 0 {
		r.flags &^= reqHook
		r.comm.proc.eng.OnFinish(p)
	}
	return Status{Source: r.comm.rankOf(Rank(p.meta[MetaSrcRank])), Tag: p.tag, Count: int(p.count)}
}

// Wait blocks (pumping library progress) until the request completes and
// returns its status. This is MPI_Wait. The progress loop is inlined
// (rather than passed to WaitUntil as a method-value closure) so the hot
// path allocates nothing.
func (r *Request) Wait() Status {
	e := r.comm.proc.eng
	yields := 0
	for {
		e.poll()
		done := r.ready()
		// Same pre-block discipline as WaitUntil: staged acks and frames
		// go out before this process sleeps on the peer.
		e.flush(true)
		if done {
			break
		}
		if r.flags&reqAckGate != 0 && yields < ackYieldRounds && r.sent() {
			// Only the ack gate is closed: yield before parking.
			yields++
			runtime.Gosched()
			continue
		}
		alive := false
		if r.gate != nil {
			alive = e.ep.WaitActivityAcks(0)
		} else {
			alive = e.ep.WaitActivity(0)
		}
		if !alive {
			Crash(e.ep.ID())
		}
	}
	return r.finish()
}

// Test progresses the library once and reports whether the request has
// completed. This is MPI_Test — one of the non-deterministic completion
// calls send-determinism makes harmless.
func (r *Request) Test() (Status, bool) {
	r.comm.proc.eng.Progress()
	if !r.ready() {
		return Status{}, false
	}
	return r.finish(), true
}

// Done reports completion without progressing the library.
func (r *Request) Done() bool { return r.ready() }

// Waitall waits for all requests (MPI_Waitall); nil entries are skipped.
// It returns no statuses: a caller that wants one waits on that request.
func Waitall(reqs ...*Request) {
	for _, r := range reqs {
		if r != nil {
			r.Wait()
		}
	}
}
