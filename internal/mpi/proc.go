package mpi

import "repro/internal/transport"

// Proc is a physical process's handle on the MPI stack: its engine plus
// identity. One Proc exists per process goroutine.
type Proc struct {
	eng *Engine
}

// NewProc attaches a process to the network and builds its PML engine.
func NewProc(nw *transport.Network, id transport.ProcID) *Proc {
	return &Proc{eng: NewEngine(nw, nw.Endpoint(id))}
}

// Engine returns the PML engine.
func (p *Proc) Engine() *Engine { return p.eng }

// ID returns the physical process ID.
func (p *Proc) ID() transport.ProcID { return p.eng.Proc() }

// Protocol is the vProtocol interception interface: the point in the stack
// where SDR-MPI (and the baseline protocols) sit. The OMPI layer (Comm)
// routes every point-to-point operation — and therefore, transitively,
// every collective and communicator operation — through it. Isend
// and Irecv return the request by value: a blocking call waits on it in
// its own frame, and only a non-blocking one moves it to the heap.
type Protocol interface {
	// Name identifies the protocol ("native", "sdr", "mirror", ...).
	Name() string
	// MyBaseRank returns this process's logical rank in the base world.
	MyBaseRank() Rank
	// Isend starts a logical send to comm rank `to` on context ctx.
	Isend(c *Comm, ctx uint32, to Rank, tag int, data []byte) Request
	// Irecv posts a logical receive from comm rank `from` (or AnySource).
	Irecv(c *Comm, ctx uint32, from Rank, tag int, buf []byte) Request
}

// Native is the pass-through protocol: no replication, physical process i
// is logical rank i. It is both the baseline for every experiment and the
// reference semantics for the replication protocols.
type Native struct {
	proc *Proc
}

// NewNative builds the native protocol for proc.
func NewNative(proc *Proc) *Native { return &Native{proc: proc} }

// Name implements Protocol.
func (n *Native) Name() string { return "native" }

// MyBaseRank implements Protocol: physical ID is the logical rank.
func (n *Native) MyBaseRank() Rank { return Rank(n.proc.ID()) }

// Isend implements Protocol.
func (n *Native) Isend(c *Comm, ctx uint32, to Rank, tag int, data []byte) Request {
	base := c.BaseRank(to)
	var meta [4]int64
	meta[MetaSrcRank] = int64(c.BaseRank(c.rank))
	meta[MetaDstRank] = int64(base)
	preq := n.proc.eng.Isend(transport.ProcID(base), ctx, tag, data, 0, meta)
	return NewRequest1(c, true, preq, nil)
}

// Irecv implements Protocol.
func (n *Native) Irecv(c *Comm, ctx uint32, from Rank, tag int, buf []byte) Request {
	src := AnyProc
	if from != AnySource {
		src = transport.ProcID(c.BaseRank(from))
	}
	return NewRequest1(c, false, n.proc.eng.Irecv(src, AnySource, c, ctx, tag, buf), nil)
}
