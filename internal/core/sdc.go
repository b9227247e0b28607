package core

import (
	"hash/crc32"

	"repro/internal/mpi"
	"repro/internal/transport"
)

// redMPI-style silent-data-corruption detection (§2.4: "redMPI aims at
// detecting and correcting silent faults by comparing the messages sent by
// the replicas of a MPI rank. Each replica sends a message to one receiver
// plus a hash to all other replicas to do the comparison."). In SDR-MPI's
// parallel scheme the hash rides to exactly the processes that would
// otherwise only see an ack, so the addition is one extra small message
// per application message, and — the paper's closing point — it inherits
// the leaderless ANY_SOURCE handling.

// castagnoli is the CRC-32C table; hash/crc32 runs it on the SSE4.2 /
// ARMv8 CRC instructions.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// HashPayload is the payload hash the replicas of a sender compare (and
// the send recorder chains): CRC-32C, zero-extended. It is a pure function
// of the bytes, so replicas in different OS processes agree — which rules
// out a per-process seeded hash such as hash/maphash.
func HashPayload(data []byte) uint64 {
	return uint64(crc32.Checksum(data, castagnoli))
}

// sendHash ships the payload hash of an outgoing message to a replica of
// the destination rank that does not receive the payload from us.
func (p *Replicated) sendHash(q transport.ProcID, ctx uint32, tag int, seq uint64, meta [4]int64, data []byte) {
	h := HashPayload(data)
	p.eng.Endpoint().Send(&transport.Message{
		Dst:  q,
		Kind: transport.KindHash,
		Ctx:  ctx,
		Tag:  tag,
		Seq:  seq,
		Meta: [4]int64{meta[mpi.MetaSrcRank], meta[mpi.MetaDstRank], meta[mpi.MetaWorld], int64(h)},
	})
}

// onHash pairs a remote replica's payload hash with the local reception of
// the same logical message.
func (p *Replicated) onHash(m *transport.Message) {
	key := retKey{m.Ctx, int(m.Meta[mpi.MetaSrcRank]), m.Seq}
	if local, ok := p.sdcLocal[key]; ok {
		p.compareHash(key, local, uint64(m.Meta[3]))
		p.consumeLocal(key)
		return
	}
	p.sdcRemote[key] = append(p.sdcRemote[key], m.Meta[3])
}

// recordLocalHash hashes a completed reception and compares it against any
// already-arrived remote hashes.
func (p *Replicated) recordLocalHash(pr *mpi.PReq) {
	buf := pr.Buf()
	h := HashPayload(buf[:min(pr.Count(), len(buf))])
	key := retKey{pr.Ctx(), int(pr.Meta(mpi.MetaSrcRank)), pr.Seq()}
	if remotes, ok := p.sdcRemote[key]; ok {
		for _, r := range remotes {
			p.compareHash(key, h, uint64(r))
		}
		p.sdcRemote[key] = p.sdcRemote[key][:0]
		delete(p.sdcRemote, key)
		if p.layout.Degree(key.dstRank) == 2 {
			return // the single expected remote hash has been consumed
		}
	}
	if p.layout.Degree(key.dstRank) < 2 {
		// An unreplicated sender has no peer replica that could ever ship
		// a hash; storing the local one would leak an entry per message.
		return
	}
	p.sdcLocal[key] = h
}

// consumeLocal drops the stored local hash once all expected remote hashes
// have been compared (exact accounting matters only for degree > 2; with
// dual replication one remote hash completes the pair). The retKey's rank
// field holds the sender's rank here — hash pairing is keyed by source.
func (p *Replicated) consumeLocal(key retKey) {
	if p.layout.Degree(key.dstRank) == 2 {
		delete(p.sdcLocal, key)
	}
}

// compareHash reports a mismatch.
func (p *Replicated) compareHash(key retKey, local, remote uint64) {
	if local == remote {
		return
	}
	p.sdcCount++
	if p.opts.OnSDC != nil {
		p.opts.OnSDC(key.ctx, key.dstRank, key.seq)
	}
}
