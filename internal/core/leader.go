package core

import (
	"repro/internal/detect"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// Leader-based handling of anonymous receptions — the baseline that
// existing replication protocols (rMPI, MR-MPI, redMPI) use for
// non-deterministic MPI calls, reproduced here for the Figure 2 / §4.4
// comparison. Replica 0 of each rank is the leader: it posts the wildcard
// receive, observes which source the MPI matching picked, and imposes that
// outcome on the other replicas, which only then post a *specific*
// receive. The two costs the paper attributes to this scheme are visible
// by construction: an extra decision message on the critical path, and a
// higher unexpected-message rate at the followers because their receives
// are posted late.
//
// Failures are not supported in leader mode (the experiments that use it
// are failure-free); SDR-MPI's point is precisely that send-determinism
// removes the need for this machinery.

// leaderState tracks wildcard agreement on one process.
type leaderState struct {
	nextIdx   uint64               // wildcard call counter, identical across replicas
	marks     map[*mpi.PReq]uint64 // leader: posted wildcard → idx
	decisions map[uint64]int       // follower: idx → decided source rank
	waiting   map[uint64]*mpi.PReq // follower: idx → wildcard awaiting a decision
}

func (s *leaderState) init() {
	s.marks = make(map[*mpi.PReq]uint64)
	s.decisions = make(map[uint64]int)
	s.waiting = make(map[uint64]*mpi.PReq)
}

// irecvLeaderWildcard handles an ANY_SOURCE receive in leader mode. The
// receive is built before it is posted: the leader marks it first, so the
// decision goes out from the match hook even when the receive matches in
// the unexpected queue as it is posted; the follower's request holds it
// unposted until the decision names its source.
func (p *Replicated) irecvLeaderWildcard(c *mpi.Comm, ctx uint32, tag int, buf []byte) mpi.Request {
	idx := p.wc.nextIdx
	p.wc.nextIdx++
	pr := p.eng.NewRecv(mpi.AnyProc, c, ctx, tag, buf)
	if p.myRep == 0 {
		p.wc.marks[pr] = idx
		p.eng.Post(pr, mpi.AnySource)
	} else if srcRank, ok := p.wc.decisions[idx]; ok {
		delete(p.wc.decisions, idx)
		p.eng.Post(pr, mpi.Rank(srcRank))
	} else {
		p.wc.waiting[idx] = pr
	}
	return mpi.NewRequest1(c, false, pr, nil)
}

// onMatchLeader fires on every PML match; for the leader's tracked
// wildcards it broadcasts the decision to the follower replicas.
func (p *Replicated) onMatchLeader(pr *mpi.PReq, m *transport.Message) {
	idx, ok := p.wc.marks[pr]
	if !ok {
		return
	}
	delete(p.wc.marks, pr)
	p.sendDecision(idx, int(m.Meta[mpi.MetaSrcRank]))
}

// sendDecision informs the other replicas of this rank which source the
// leader's wildcard consumed.
func (p *Replicated) sendDecision(idx uint64, srcRank int) {
	for rep := 1; rep < p.layout.Degree(p.myRank); rep++ {
		q := p.layout.Phys(rep, p.myRank)
		if !p.alive[int(q)] {
			continue
		}
		p.eng.Endpoint().Send(&transport.Message{
			Dst:  q,
			Kind: transport.KindCtl,
			Tag:  detect.TagDecision,
			Meta: [4]int64{int64(idx), int64(srcRank)},
		})
	}
}

// onDecision applies a leader decision at a follower: the pending wildcard
// (if already posted by the application) is posted as a receive from the
// decided source rank (Figure 2 left: "ANY_SOURCE = p1"). A wildcard
// cancelled in the meantime stays unposted.
func (p *Replicated) onDecision(m *transport.Message) {
	idx := uint64(m.Meta[0])
	srcRank := int(m.Meta[1])
	if pr, ok := p.wc.waiting[idx]; ok {
		delete(p.wc.waiting, idx)
		p.eng.Post(pr, mpi.Rank(srcRank))
		return
	}
	p.wc.decisions[idx] = srcRank
}
