package mpi

// Persistent communication requests (MPI_Send_init / MPI_Recv_init /
// MPI_Start / MPI_Startall). A persistent request captures the argument
// list of a point-to-point operation once; each Start launches a fresh
// communication with those arguments through the communicator's protocol,
// so replication covers persistent traffic exactly like ordinary traffic.
// HPC codes with fixed communication stencils (the NAS benchmarks among
// them) use persistent requests to hoist argument setup out of the
// iteration loop.

// Persistent is an inactive-or-active persistent request.
type Persistent struct {
	comm *Comm
	send bool
	peer Rank
	tag  int
	buf  []byte

	active *Request
}

// SendInit creates an inactive persistent send request (MPI_Send_init).
// The data buffer is captured by reference: each Start sends its current
// contents.
func (c *Comm) SendInit(to Rank, tag int, data []byte) *Persistent {
	c.checkSendArgs(to, tag)
	return &Persistent{comm: c, send: true, peer: to, tag: tag, buf: data}
}

// RecvInit creates an inactive persistent receive request (MPI_Recv_init).
func (c *Comm) RecvInit(from Rank, tag int, buf []byte) *Persistent {
	c.checkRecvArgs(from, tag)
	return &Persistent{comm: c, send: false, peer: from, tag: tag, buf: buf}
}

// Start activates the request (MPI_Start). Starting an already-active
// request is an ErrRequest error.
func (p *Persistent) Start() {
	if p.active != nil && !p.active.Done() {
		raise(ErrRequest, "Start on an active persistent request")
	}
	if p.send {
		p.active = p.comm.Isend(p.peer, p.tag, p.buf)
	} else {
		p.active = p.comm.Irecv(p.peer, p.tag, p.buf)
	}
}

// Wait blocks until the active communication completes and returns the
// request to the inactive state. Waiting on an inactive persistent request
// returns an empty Status immediately, as MPI_Wait on an inactive request
// does.
func (p *Persistent) Wait() Status {
	if p.active == nil {
		return Status{}
	}
	st := p.active.Wait()
	p.active = nil
	return st
}

// Test progresses the library once and reports whether the active
// communication has completed; completion returns the request to the
// inactive state. An inactive request tests as complete.
func (p *Persistent) Test() (Status, bool) {
	if p.active == nil {
		return Status{}, true
	}
	st, done := p.active.Test()
	if done {
		p.active = nil
	}
	return st, done
}

// Active reports whether a started communication has not yet been waited
// on.
func (p *Persistent) Active() bool { return p.active != nil }

// Buf returns the captured buffer (receive side: where payloads land).
func (p *Persistent) Buf() []byte { return p.buf }

// Startall activates a set of persistent requests (MPI_Startall).
func Startall(ps ...*Persistent) {
	for _, p := range ps {
		if p != nil {
			p.Start()
		}
	}
}

// WaitallPersistent waits for every active request in the set and returns
// their statuses (inactive entries yield zero Status).
func WaitallPersistent(ps ...*Persistent) []Status {
	out := make([]Status, len(ps))
	for i, p := range ps {
		if p != nil {
			out[i] = p.Wait()
		}
	}
	return out
}
