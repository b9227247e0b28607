package mpi

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Undefined is the color value for ranks that opt out of a Split
// (MPI_UNDEFINED); they receive a nil communicator.
const Undefined = -1

// ProcNull is the null process (MPI_PROC_NULL): sends to it and receives
// from it complete immediately without transferring data. Shift operations
// on non-periodic cartesian topologies return it for off-grid neighbours.
const ProcNull Rank = -2

// Comm is a communicator: an ordered group of logical ranks with isolated
// communication contexts (one for point-to-point, one for collectives, as
// real MPI implementations do). All Comm operations route through the
// protocol, which is what makes the replication layer transparently cover
// collectives and communicator management (paper §4.1, Figure 6).
type Comm struct {
	proc     *Proc
	protocol Protocol

	rank  Rank // my rank within this communicator
	group *Group
	inv   map[Rank]Rank // base rank → comm rank

	ctxP2P  uint32
	ctxColl uint32

	childIdx uint32 // counter for deriving child contexts
	collSeq  uint64 // per-collective-call sequence for tag isolation
}

// worldCtxP2P/worldCtxColl are the contexts of a base world communicator.
const (
	worldCtxP2P  uint32 = 2
	worldCtxColl uint32 = 3
)

// NewWorld builds the world communicator (ranks 0..size-1) for this
// process under the given protocol. Under replication every replica gets a
// world with the same contexts — the per-world traffic separation comes
// from physical routing, not context values (Figure 6).
func NewWorld(proc *Proc, protocol Protocol, size int) *Comm {
	return newComm(proc, protocol, WorldGroup(size), protocol.MyBaseRank(), worldCtxP2P, worldCtxColl)
}

func newComm(proc *Proc, protocol Protocol, g *Group, myBase Rank, ctxP2P, ctxColl uint32) *Comm {
	c := &Comm{
		proc:     proc,
		protocol: protocol,
		group:    g,
		inv:      make(map[Rank]Rank, g.Size()),
		ctxP2P:   ctxP2P,
		ctxColl:  ctxColl,
	}
	for i, b := range g.ranks {
		c.inv[b] = Rank(i)
	}
	c.rank = c.inv[myBase]
	return c
}

// Rank returns this process's rank in the communicator.
func (c *Comm) Rank() Rank { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.group.Size() }

// BaseRank translates a comm rank to the base-world rank.
func (c *Comm) BaseRank(r Rank) Rank { return c.group.Base(r) }

// InComm reports whether base rank b belongs to this communicator.
func (c *Comm) InComm(b Rank) bool {
	_, ok := c.inv[b]
	return ok
}

// rankOf translates a base rank to the comm rank (-1 if absent).
func (c *Comm) rankOf(b Rank) Rank {
	if r, ok := c.inv[b]; ok {
		return r
	}
	return -1
}

// Proc returns the owning physical process handle.
func (c *Comm) Proc() *Proc { return c.proc }

// CtxP2P returns the point-to-point context ID (the protocol tests build
// messages and acks on it).
func (c *Comm) CtxP2P() uint32 { return c.ctxP2P }

// --- Point-to-point operations -------------------------------------------

// nullRequest builds an already-complete request: the result of an
// operation on ProcNull.
func (c *Comm) nullRequest(send bool) Request {
	return Request{comm: c, flags: reqNull | sendFlag(send)}
}

// Isend starts a non-blocking send of data to comm rank `to` (MPI_Isend).
// The payload buffer must not be modified until Wait returns.
func (c *Comm) Isend(to Rank, tag int, data []byte) *Request {
	r := c.isend(to, tag, data)
	return &r
}

// isend is Isend with the request in the caller's frame.
func (c *Comm) isend(to Rank, tag int, data []byte) Request {
	if to == ProcNull {
		return c.nullRequest(true)
	}
	c.checkSendArgs(to, tag)
	return c.protocol.Isend(c, c.ctxP2P, to, tag, data)
}

// Send is the blocking send (MPI_Send).
func (c *Comm) Send(to Rank, tag int, data []byte) {
	r := c.isend(to, tag, data)
	r.Wait()
}

// Irecv posts a non-blocking receive from comm rank `from` — which may be
// AnySource — into buf (MPI_Irecv).
func (c *Comm) Irecv(from Rank, tag int, buf []byte) *Request {
	r := c.irecv(from, tag, buf)
	return &r
}

// irecv is Irecv with the request in the caller's frame.
func (c *Comm) irecv(from Rank, tag int, buf []byte) Request {
	if from == ProcNull {
		return c.nullRequest(false)
	}
	c.checkRecvArgs(from, tag)
	return c.protocol.Irecv(c, c.ctxP2P, from, tag, buf)
}

// Recv is the blocking receive (MPI_Recv).
func (c *Comm) Recv(from Rank, tag int, buf []byte) Status {
	r := c.irecv(from, tag, buf)
	return r.Wait()
}

// Sendrecv posts the receive, performs the send, then completes the
// receive (MPI_Sendrecv).
func (c *Comm) Sendrecv(to Rank, sendTag int, sendData []byte, from Rank, recvTag int, recvBuf []byte) Status {
	rr := c.irecv(from, recvTag, recvBuf)
	c.Send(to, sendTag, sendData)
	return rr.Wait()
}

// collective-context variants used by the collectives module.
func (c *Comm) isendColl(to Rank, tag int, data []byte) Request {
	return c.protocol.Isend(c, c.ctxColl, to, tag, data)
}

func (c *Comm) irecvColl(from Rank, tag int, buf []byte) Request {
	return c.protocol.Irecv(c, c.ctxColl, from, tag, buf)
}

func (c *Comm) sendColl(to Rank, tag int, data []byte) {
	r := c.isendColl(to, tag, data)
	r.Wait()
}

func (c *Comm) recvColl(from Rank, tag int, buf []byte) Status {
	r := c.irecvColl(from, tag, buf)
	return r.Wait()
}

// collTag derives the tag for round `round` of the collective call with
// sequence seq. Each collective call obtains a fresh seq via nextCollSeq,
// so concurrent collectives from successive calls cannot cross-match even
// when ranks enter them at different times.
func collTag(seq uint64, round int) int {
	return int(seq)<<8 | (round & 0xff)
}

func (c *Comm) nextCollSeq() uint64 {
	s := c.collSeq
	c.collSeq++
	return s
}

// CollSeq returns the communicator's collective-call sequence counter.
// Restart machinery (the localized-replay rung) persists it with a
// checkpoint: a relaunched process must tag its collectives exactly where
// the survivors expect them, or no barrier would ever complete again.
func (c *Comm) CollSeq() uint64 { return c.collSeq }

// SetCollSeq restores the collective-call sequence counter on a freshly
// built communicator (the counterpart of CollSeq for a relaunch).
func (c *Comm) SetCollSeq(v uint64) { c.collSeq = v }

// --- Communicator management ---------------------------------------------

// childCtx derives the context pair for the next child communicator. The
// derivation is deterministic and identical on every member (and every
// replica), which is how real implementations agree on context IDs without
// extra traffic in the common case. The scheme supports communicator trees
// up to ~6 levels deep with up to 30 children per node.
func (c *Comm) childCtx() (uint32, uint32) {
	c.childIdx++
	if c.childIdx > 30 {
		panic("mpi: too many child communicators (max 30 per communicator)")
	}
	base := c.ctxP2P<<6 + 2*c.childIdx
	if base > 1<<31 {
		panic("mpi: communicator tree too deep")
	}
	return base, base + 1
}

// Dup duplicates the communicator: same group and ranks, fresh contexts
// (MPI_Comm_dup). Collective over the communicator.
func (c *Comm) Dup() *Comm {
	// Synchronize so no member races ahead with traffic on the new
	// contexts before everyone has derived them.
	c.Barrier()
	p2p, coll := c.childCtx()
	return newComm(c.proc, c.protocol, NewGroup(c.group.ranks), c.BaseRank(c.rank), p2p, coll)
}

// Split partitions the communicator by color; within a color, ranks order
// by (key, old rank) (MPI_Comm_split). Ranks passing Undefined get nil.
// Collective over the communicator.
func (c *Comm) Split(color, key int) *Comm {
	// Allgather everyone's (color, key).
	mine := make([]byte, 16)
	binary.LittleEndian.PutUint64(mine, uint64(int64(color)))
	binary.LittleEndian.PutUint64(mine[8:], uint64(int64(key)))
	all := c.Allgather(mine)
	type entry struct {
		color, key int
		oldRank    Rank
	}
	var members []entry
	for r := 0; r < c.Size(); r++ {
		col := int(int64(binary.LittleEndian.Uint64(all[r*16:])))
		k := int(int64(binary.LittleEndian.Uint64(all[r*16+8:])))
		if col == color && col != Undefined {
			members = append(members, entry{col, k, Rank(r)})
		}
	}
	p2p, coll := c.childCtx()
	if color == Undefined {
		return nil
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].oldRank < members[j].oldRank
	})
	ranks := make([]Rank, len(members))
	for i, m := range members {
		ranks[i] = c.BaseRank(m.oldRank)
	}
	return newComm(c.proc, c.protocol, NewGroup(ranks), c.BaseRank(c.rank), p2p, coll)
}

// String identifies the communicator for debugging.
func (c *Comm) String() string {
	return fmt.Sprintf("comm(ctx=%d,rank=%d/%d,proto=%s)", c.ctxP2P, c.rank, c.Size(), c.protocol.Name())
}
