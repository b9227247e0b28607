// Package core implements SDR-MPI — the send-deterministic replication
// protocol of the paper — together with the comparison protocols
// (MR-MPI-style mirror, rMPI/redMPI-style leader-based) and the recovery
// procedure for replication degree two (§3.4).
//
// The protocol sits at the paper's vProtocol interception point: it
// implements mpi.Protocol, routing each logical operation onto one or more
// PML requests, and registers PML hooks (OnArrive / OnRecvComplete / OnAck
// / OnCtl) for the events the Open MPI patch captures (pml_match,
// pml_recv_complete).
//
// Protocol summary (Algorithm 1): replica k of rank i sends application
// messages only to replica k of rank j (parallel protocol). Every receiver
// replica acknowledges each received message, on the irecvComplete event,
// to all *other* alive replicas of the source rank; a sender retains the
// payload until it has collected those acks. Where Algorithm 1 also
// completes the send request only then, this implementation completes an
// eager send #k to a destination once send #k−1 to it is acknowledged (a
// rendezvous send, whose payload is the user's buffer, still waits for its
// own acks): a sender rarely parks for an ack, and while both replicas of
// every rank are alive the two worlds drift by at most one message per
// destination — see retention.go. After a substitution, sends into the
// survivor's world are not gated at all, and without CheckpointDir nothing
// bounds the drift (ROADMAP item 4). When a replica
// fails, a deterministically elected substitute
// re-sends the retained messages the dead replica's world had not yet
// acknowledged and emits that world's subsequent messages on its behalf.
// Send-determinism guarantees the substitute's message sequence is the one
// the dead replica would have produced, with no leader-based agreement on
// non-deterministic calls (ANY_SOURCE, Test, Probe).
package core

import (
	"fmt"
	"time"

	"repro/internal/transport"
)

// Mode selects the replication message scheme.
type Mode int

const (
	// ModeParallel is SDR-MPI: O(q·r) application messages plus
	// receiver-side acks (§2.4, §3).
	ModeParallel Mode = iota
	// ModeMirror is the MR-MPI-style mirror protocol: every replica of
	// the sender transmits to every replica of the receiver, O(q·r²)
	// messages, no acks or retention.
	ModeMirror
	// ModeLeader is the rMPI/redMPI-style semi-active baseline: the
	// parallel scheme, but ANY_SOURCE receptions are decided by a leader
	// replica that imposes the outcome on the other replicas (§3.1,
	// Figure 2 left).
	ModeLeader
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeParallel:
		return "sdr"
	case ModeMirror:
		return "mirror"
	case ModeLeader:
		return "leader"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Layout maps (replica, logical rank) pairs onto physical processes.
//
// A uniform layout (the paper's Figure 6 world separation) launches r·n
// processes and physical process rep·n + rank is replica `rep` of rank
// `rank`. A degree-aware layout (§5's partial-replication outlook)
// additionally carries a per-rank replication vector: rank i runs
// degrees[i] replicas, 1 ≤ degrees[i] ≤ R, and the physical-ID space is
// dense — Σ degrees[i] processes, with no slots for replicas that do not
// exist. The enumeration stays world-major so it degenerates to the
// uniform formula when every degree equals R: world k contains replica k
// of every rank whose degree exceeds k, in rank order.
type Layout struct {
	N int // logical ranks
	R int // maximum replication degree

	// degrees[rank] is rank's replication degree; nil means the uniform
	// R for every rank. Non-uniform layouts must be built with NewLayout
	// so the dense lookup tables below exist.
	degrees []int
	physTab []transport.ProcID // rep*N+rank → physical ID, NoProc if absent
	rankTab []int              // physical ID → logical rank
	repTab  []int              // physical ID → replica (world) index
	nprocs  int
}

// NewLayout builds a layout for n ranks with maximum degree r. A nil
// degree vector — or one that is r everywhere — yields the uniform
// layout; otherwise degrees[rank] gives rank's replica count and the
// physical-ID space is dense.
func NewLayout(n, r int, degrees []int) (Layout, error) {
	if n <= 0 || r <= 0 {
		return Layout{}, fmt.Errorf("core: layout needs n ≥ 1, r ≥ 1 (got n=%d r=%d)", n, r)
	}
	uniform := degrees == nil
	if degrees != nil {
		if len(degrees) != n {
			return Layout{}, fmt.Errorf("core: degree vector has %d entries for %d ranks", len(degrees), n)
		}
		uniform = true
		for rank, d := range degrees {
			if d < 1 || d > r {
				return Layout{}, fmt.Errorf("core: rank %d degree %d outside [1,%d]", rank, d, r)
			}
			if d != r {
				uniform = false
			}
		}
	}
	if uniform {
		return Layout{N: n, R: r}, nil
	}
	l := Layout{
		N:       n,
		R:       r,
		degrees: append([]int(nil), degrees...),
		physTab: make([]transport.ProcID, n*r),
	}
	for rep := 0; rep < r; rep++ {
		for rank := 0; rank < n; rank++ {
			if degrees[rank] > rep {
				l.physTab[rep*n+rank] = transport.ProcID(l.nprocs)
				l.rankTab = append(l.rankTab, rank)
				l.repTab = append(l.repTab, rep)
				l.nprocs++
			} else {
				l.physTab[rep*n+rank] = transport.NoProc
			}
		}
	}
	return l, nil
}

// Uniform reports whether every rank runs the same degree R.
func (l *Layout) Uniform() bool { return l.degrees == nil }

// Degree returns rank's replication degree.
func (l *Layout) Degree(rank int) int {
	if l.degrees == nil {
		return l.R
	}
	return l.degrees[rank]
}

// DegreeVector returns a copy of the per-rank degree vector, or nil for a
// uniform layout (callers encode nil as "uniform R" on the wire).
func (l *Layout) DegreeVector() []int {
	if l.degrees == nil {
		return nil
	}
	return append([]int(nil), l.degrees...)
}

// Phys returns the physical process implementing replica rep of rank, or
// transport.NoProc when the rank's degree does not reach that replica.
func (l *Layout) Phys(rep, rank int) transport.ProcID {
	if l.degrees == nil {
		return transport.ProcID(rep*l.N + rank)
	}
	return l.physTab[rep*l.N+rank]
}

// RankOf returns the logical rank of a physical process.
func (l *Layout) RankOf(p transport.ProcID) int {
	if l.degrees == nil {
		return int(p) % l.N
	}
	return l.rankTab[int(p)]
}

// RepOf returns the replica (world) index of a physical process.
func (l *Layout) RepOf(p transport.ProcID) int {
	if l.degrees == nil {
		return int(p) / l.N
	}
	return l.repTab[int(p)]
}

// Procs returns the total number of physical processes: r·n for a
// uniform layout, Σ degrees[i] for a degree-aware one.
func (l *Layout) Procs() int {
	if l.degrees == nil {
		return l.N * l.R
	}
	return l.nprocs
}

// Options tune the protocol; the zero value is the paper's configuration.
type Options struct {
	// AckOnWait moves ack emission from the irecvComplete event to
	// application-level completion (MPI_Wait). The paper (§3.3) explains
	// why this deadlocks the Irecv–Send–Wait exchange pattern; the
	// ablation test demonstrates it.
	AckOnWait bool
	// SDC enables redMPI-style silent-data-corruption detection: each
	// sender also ships a payload hash to the other replicas of the
	// destination rank, and receivers compare.
	SDC bool
	// OnSDC is invoked on a detected hash mismatch (ctx, srcRank, seq).
	OnSDC func(ctx uint32, srcRank int, seq uint64)
	// Corrupt, if set, may mutate an outgoing payload before it is sent
	// (and before its hash is computed on this replica, modelling memory
	// corruption ahead of the NIC); the SDC tests use it to inject bit
	// flips on one replica.
	Corrupt func(dstRank int, seq uint64, data []byte)
	// SendRecorder observes every logical application send (the
	// send-determinism checker attaches here).
	SendRecorder func(ctx uint32, dstRank, tag int, payload []byte)

	// LogDests marks the logical ranks whose inbound application messages
	// this process must copy into its sender-based message log (the
	// localized-replay recovery mode: the launcher sets it for every
	// degree-1 rank). A logged rank's death no longer raises
	// mpi.ReplicationExhausted — survivors park on their next dependence
	// while the launcher relaunches the rank alone and the logs replay.
	// Nil disables logging entirely (zero cost on the send path).
	LogDests []bool

	// NoAckCoalesce disables receiver-side acknowledgement coalescing,
	// restoring one discrete KindAck message per (message, replica) — the
	// configuration a naive reading of Algorithm 1 produces. Coalescing
	// (the default) batches the acks a process owes each destination and
	// ships them as one KindAck message, flushed on the next outbound
	// message to that destination, when the batch fills, or by engine
	// progress after a short age (see ackFlushDelay). Protocol semantics
	// are unchanged: acks are only ever delayed, never dropped, and a
	// process force-flushes before blocking so ack-gated sends cannot
	// deadlock.
	NoAckCoalesce bool
}

// Ack coalescing's limits (see Options.NoAckCoalesce): the records one
// coalesced ack message carries at most, and the age at which engine
// progress flushes pending acks without a forcing event.
const (
	ackBatchMax   = 64
	ackFlushDelay = 200 * time.Microsecond
)

// retKey names one logical message: (context, peer logical rank, sequence
// number). The SDC detector pairs payload hashes by it.
type retKey struct {
	ctx     uint32
	dstRank int
	seq     uint64
}

// maxDegree bounds the replication degree: a retention entry tracks the
// replicas still to acknowledge it in one machine word.
const maxDegree = 64
