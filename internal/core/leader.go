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
	nextIdx   uint64                // wildcard call counter, identical across replicas
	marks     map[*mpi.PReq]uint64  // leader: posted wildcard → idx
	decisions map[uint64]int        // follower: idx → decided source rank
	waiting   map[uint64]*pendingWC // follower: idx → wildcard awaiting a decision
}

type pendingWC struct {
	ctx uint32
	tag int
	buf []byte
	req *mpi.Request
	pr  *mpi.PReq
}

// GateOpen implements mpi.Gate: a follower's wildcard completes once the
// decided receive was posted and has completed.
func (pw *pendingWC) GateOpen(uint64, bool) bool { return pw.pr != nil && pw.pr.Done() }

func (s *leaderState) init() {
	s.marks = make(map[*mpi.PReq]uint64)
	s.decisions = make(map[uint64]int)
	s.waiting = make(map[uint64]*pendingWC)
}

// irecvLeaderWildcard handles an ANY_SOURCE receive in leader mode.
func (p *Replicated) irecvLeaderWildcard(c *mpi.Comm, ctx uint32, tag int, buf []byte) *mpi.Request {
	idx := p.wc.nextIdx
	p.wc.nextIdx++

	if p.myRep == 0 {
		// Leader: post the wildcard; the decision is emitted at match
		// time by onMatchLeader.
		pr := p.eng.Irecv(mpi.AnyProc, mpi.AnySource, c, ctx, tag, buf)
		if pr.Done() {
			// Matched immediately from the unexpected queue: the match
			// hook already fired before the mark was set, so emit here.
			p.sendDecision(idx, int(pr.PStatus().Meta[mpi.MetaSrcRank]))
		} else {
			p.wc.marks[pr] = idx
		}
		return mpi.NewRequest1(c, false, pr, nil)
	}

	// Follower: delay posting until the leader's decision arrives.
	pw := &pendingWC{ctx: ctx, tag: tag, buf: buf}
	pw.req = mpi.NewRequest(c, false, nil, pw)
	if srcRank, ok := p.wc.decisions[idx]; ok {
		delete(p.wc.decisions, idx)
		p.postDecided(pw, srcRank)
	} else {
		p.wc.waiting[idx] = pw
	}
	return pw.req
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
// (if already posted by the application) becomes a specific receive.
func (p *Replicated) onDecision(m *transport.Message) {
	idx := uint64(m.Meta[0])
	srcRank := int(m.Meta[1])
	if pw, ok := p.wc.waiting[idx]; ok {
		delete(p.wc.waiting, idx)
		p.postDecided(pw, srcRank)
		return
	}
	p.wc.decisions[idx] = srcRank
}

// postDecided posts the follower's receive restricted to the decided
// source rank (Figure 2 left: "ANY_SOURCE = p1").
func (p *Replicated) postDecided(pw *pendingWC, srcRank int) {
	pw.pr = p.eng.Irecv(mpi.AnyProc, mpi.Rank(srcRank), nil, pw.ctx, pw.tag, pw.buf)
	pw.req.Attach(pw.pr)
}
