// Package mpi implements a message-passing library with MPI semantics on
// top of the transport substrate. It mirrors the layering of Open MPI that
// the paper's Figure 5 describes:
//
//	application  →  Comm (the OMPI binding layer: Send/Recv, collectives,
//	                 communicators, topologies)
//	             →  Protocol (the vProtocol interception point where the
//	                 replication layer sits; the native protocol is a
//	                 pass-through)
//	             →  Engine (the PML: matching of posted receives against
//	                 incoming messages, eager and rendezvous wire
//	                 protocols, request progress)
//	             →  transport (the BTL: reliable FIFO links)
//
// Collective operations are implemented on top of the point-to-point
// functions — the same assumption the paper makes (§2.2) — so a protocol
// that intercepts point-to-point traffic transparently covers every
// collective and communicator operation.
//
// The engine only progresses when the application enters the library
// (§3.3: "the library can only progress when the application makes a MPI
// call"), which is what makes the paper's ack-on-irecvComplete versus
// ack-on-wait deadlock argument observable in this implementation.
package mpi

import (
	"strconv"

	"repro/internal/transport"
)

// Rank is a logical MPI rank within a communicator.
type Rank int

// AnySource is the wildcard source rank (MPI_ANY_SOURCE). Receiving with
// AnySource is the canonical non-deterministic MPI call whose handling
// distinguishes SDR-MPI from leader-based protocols.
const AnySource Rank = -1

// AnyTag is the wildcard tag (MPI_ANY_TAG).
const AnyTag int = -1

// AnyProc is the physical-level wildcard used by protocols when posting a
// wildcard receive at the PML.
const AnyProc transport.ProcID = -2

// Status describes a completed receive at the application level.
type Status struct {
	// Source is the communicator rank the message came from (logical,
	// post-translation — replicas of a rank are indistinguishable here).
	Source Rank
	// Tag is the message tag.
	Tag int
	// Count is the payload size in bytes.
	Count int
}

// PStatus describes a completed receive at the PML level, before the
// protocol translates physical processes to logical ranks.
type PStatus struct {
	SrcPhys transport.ProcID
	Ctx     uint32
	Tag     int
	Count   int
	Seq     uint64
	Meta    [4]int64
}

// Meta slot conventions for application messages. Protocols fill these so
// receivers can recover logical routing information from a physical
// message.
const (
	// MetaSrcRank holds the sender's base-world logical rank.
	MetaSrcRank = 0
	// MetaDstRank holds the destination base-world logical rank.
	MetaDstRank = 1
	// MetaWorld holds the sender's replica (world) index.
	MetaWorld = 2
	// MetaLen holds the full payload length (rendezvous RTS).
	MetaLen = 3
)

// crashSentinel is the panic value used to unwind a process goroutine when
// it observes its own fail-stop crash. The cluster harness recovers it.
type crashSentinel struct{ Proc transport.ProcID }

// ErrCrashed reports whether a recovered panic value is the crash sentinel.
func ErrCrashed(v any) (transport.ProcID, bool) {
	cs, ok := v.(crashSentinel)
	return cs.Proc, ok
}

// Crash unwinds the calling process goroutine as a fail-stop crash.
func Crash(p transport.ProcID) {
	panic(crashSentinel{Proc: p})
}

// ReplicationExhausted is the typed signal raised through the library when
// the last replica of a logical rank dies: replica substitution — the first
// rung of the recovery ladder — is no longer possible, and the run must
// roll back to the latest coordinated checkpoint. It travels the same
// unwind path as the crash sentinel; the cluster launcher recovers it and
// escalates to a full rollback-restart instead of reporting a failure.
type ReplicationExhausted struct{ Rank int }

// Error makes the signal usable as an error when rollback is impossible.
func (e ReplicationExhausted) Error() string {
	return "mpi: all replicas of rank " + strconv.Itoa(e.Rank) + " have failed; full rollback required"
}

// ErrExhausted reports whether a recovered panic value is the
// replication-exhausted signal, returning the rank that lost its last
// replica.
func ErrExhausted(v any) (int, bool) {
	e, ok := v.(ReplicationExhausted)
	return e.Rank, ok
}

// RaiseExhausted unwinds the calling process goroutine with the
// replication-exhausted signal.
func RaiseExhausted(rank int) {
	panic(ReplicationExhausted{Rank: rank})
}
