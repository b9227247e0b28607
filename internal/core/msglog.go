package core

// Sender-based message logging — the mechanism behind the recovery
// ladder's middle rung (localized replay). Send-determinism makes it
// cheap: because every replica of a rank emits the same message sequence,
// a sender only has to retain *payloads* keyed by (destination rank, send
// sequence); no delivery order, no piecewise-deterministic event log. When
// a logging-enabled (degree-1) rank dies, it alone is relaunched from its
// own latest checkpoint while every survivor re-sends, from its log, the
// messages the restarted rank has not yet consumed — the sequencer's
// (ctx, source rank, seq) dedup machinery, unchanged, discards everything
// the restarted rank already delivered before its checkpoint.
//
// Log truncation is driven by the receiver: after each successful
// checkpoint wave a logging-enabled rank broadcasts its per-(context,
// source rank) delivery frontier (detect.TagLogTruncate); each sender
// drops the log entries the frontier covers. The restarted rank therefore
// only ever needs entries its newest checkpoint acknowledgement did not
// cover — which is exactly what the logs still hold.
//
// Two record codecs live here, both length-checked and closed by the
// checkpoint store's CRC-32C footer (ckpt.Seal), and both failing closed:
// a frame that does not decode cleanly is *ignored* (truncation ack) or
// *aborts the localized replay* (replay state), in which case the launcher
// escalates to the global-rollback rung. Garbage is never delivered to the
// application.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/detect"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/transport"
)

// logEntry is one logged application send: an owned copy of the payload
// plus the envelope needed to re-emit it verbatim.
type logEntry struct {
	ctx  uint32
	tag  int
	seq  uint64
	meta [4]int64
	data []byte
}

// LogEnabled reports whether sends to rank are copied into this process's
// message log (the rank is part of the configured logging set).
func (p *Replicated) LogEnabled(rank int) bool {
	return p.logDests != nil && rank >= 0 && rank < len(p.logDests) && p.logDests[rank]
}

// LoggedCount reports the current message-log depth across destinations
// (tests use it to assert truncation keeps the log bounded).
func (p *Replicated) LoggedCount() int {
	n := 0
	for _, es := range p.msgLog {
		n += len(es)
	}
	return n
}

// logSend copies one outgoing application message into the per-sender log.
// The copy is owned by the log: unlike retention entries it must survive
// the application's Wait (a replay can happen arbitrarily later).
func (p *Replicated) logSend(ctx uint32, dstRank, tag int, seq uint64, meta [4]int64, data []byte) {
	if p.msgLog == nil {
		p.msgLog = make(map[int][]*logEntry)
	}
	p.msgLog[dstRank] = append(p.msgLog[dstRank], &logEntry{
		ctx: ctx, tag: tag, seq: seq, meta: meta,
		data: append([]byte(nil), data...),
	})
	gMsglogBytes.Add(int64(len(data)))
}

// replayLog re-sends, in (ctx, seq) order, every logged message destined to
// dstRank to the restarted process q. Entries the restarted rank already
// delivered before its checkpoint arrive with stale sequence numbers and
// are discarded by its sequencer; everything newer fills the gap the crash
// tore — including messages emitted while the rank was down, which were
// logged but never put on the wire.
func (p *Replicated) replayLog(dstRank int, q transport.ProcID) {
	entries := p.msgLog[dstRank]
	if len(entries) == 0 {
		return
	}
	sorted := append([]*logEntry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].ctx != sorted[j].ctx {
			return sorted[i].ctx < sorted[j].ctx
		}
		return sorted[i].seq < sorted[j].seq
	})
	for _, e := range sorted {
		p.eng.Isend(q, e.ctx, e.tag, e.data, e.seq, e.meta)
	}
	mReplayedMsgs.Add(uint64(len(sorted)))
	ev := obs.Ev(obs.StageReplay,
		fmt.Sprintf("sender log replayed: %d messages", len(sorted)))
	ev.Proc, ev.Rank = int(q), dstRank
	obs.DefaultTrace.Emit(ev)
}

// --- Truncation acknowledgements -------------------------------------------

// SeqRec is one delivery-frontier record: the receiver has delivered every
// message with sequence < Next on (Ctx, Rank→it).
type SeqRec struct {
	Ctx  uint32
	Rank int
	Next uint64
}

const (
	seqRecMagic   = 0x54524453 // "SDRT"
	seqRecBytes   = 16
	replayMagic   = 0x4c524453 // "SDRL"
	replayVersion = 1
	// replayHeader is the fixed prefix of an encoded replay state: magic,
	// version, world collective counter, three record counts.
	replayHeader = 4 + 1 + 8 + 3*4
	// msgRecHeader is the fixed prefix of one encoded message record:
	// placement byte, ctx, tag, seq, src, meta[4], payload length.
	msgRecHeader = 1 + 4 + 8 + 8 + 4 + 4*8 + 4
)

// EncodeSeqRecs appends the frontier records to dst in the truncation-ack
// wire format: magic, count, fixed-size records, ckpt.Seal footer.
func EncodeSeqRecs(dst []byte, recs []SeqRec) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, seqRecMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(recs)))
	for _, r := range recs {
		dst = binary.LittleEndian.AppendUint32(dst, r.Ctx)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(r.Rank)))
		dst = binary.LittleEndian.AppendUint64(dst, r.Next)
	}
	footer := ckpt.Seal(dst)
	return append(dst, footer[:]...)
}

// DecodeSeqRecs parses a truncation-ack payload, failing closed on any
// truncation, trailing bytes, or footer mismatch (ckpt.ErrFormat,
// ckpt.ErrCorrupt).
func DecodeSeqRecs(b []byte) ([]SeqRec, error) {
	if len(b) < 8+ckpt.FooterLen {
		return nil, fmt.Errorf("core: seq-rec frame truncated (%d bytes)", len(b))
	}
	body, err := ckpt.Open(b)
	if err != nil {
		return nil, fmt.Errorf("core: seq-rec frame: %w", err)
	}
	if binary.LittleEndian.Uint32(body) != seqRecMagic {
		return nil, fmt.Errorf("core: seq-rec frame bad magic")
	}
	n := int(binary.LittleEndian.Uint32(body[4:]))
	if n < 0 || len(body) != 8+n*seqRecBytes {
		return nil, fmt.Errorf("core: seq-rec frame wrong length for %d records", n)
	}
	recs := make([]SeqRec, n)
	for i := range recs {
		off := 8 + i*seqRecBytes
		recs[i] = SeqRec{
			Ctx:  binary.LittleEndian.Uint32(body[off:]),
			Rank: int(int32(binary.LittleEndian.Uint32(body[off+4:]))),
			Next: binary.LittleEndian.Uint64(body[off+8:]),
		}
	}
	return recs, nil
}

// BroadcastLogTruncate announces this (logging-enabled) rank's delivery
// frontier to every alive process — the checkpoint acknowledgement that
// drives sender-side log GC. Called by the harness right after the rank's
// checkpoint wave (app state + replay state) reached stable storage; until
// then senders keep everything, so a crash between checkpoint and
// broadcast only costs extra (deduplicated) re-sends.
func (p *Replicated) BroadcastLogTruncate() {
	payload := p.recvFrontier()
	for i := 0; i < p.layout.Procs(); i++ {
		q := transport.ProcID(i)
		if q == p.proc.ID() || !p.alive[int(q)] {
			continue
		}
		p.eng.Endpoint().Send(&transport.Message{
			Dst:  q,
			Kind: transport.KindCtl,
			Tag:  detect.TagLogTruncate,
			Meta: [4]int64{int64(p.myRank)},
			Data: payload,
		})
	}
}

// recvFrontier encodes this process's delivery frontier: one record per
// (context, source rank) it has admitted messages from.
func (p *Replicated) recvFrontier() []byte {
	var recs []SeqRec
	p.recvSeq.forEach(func(ctx uint32, rank int, next uint64) {
		recs = append(recs, SeqRec{Ctx: ctx, Rank: rank, Next: next})
	})
	return EncodeSeqRecs(nil, recs)
}

// onLogTruncate applies a receiver's checkpoint acknowledgement: log
// entries destined to the acking rank that its frontier covers are
// dropped. A frame that fails to decode is ignored — the log just stays
// longer, which replay tolerates (dedup), so corruption can only cost
// memory, never correctness.
func (p *Replicated) onLogTruncate(m *transport.Message) {
	dstRank := int(m.Meta[0])
	if p.msgLog == nil || len(p.msgLog[dstRank]) == 0 {
		return
	}
	recs, err := DecodeSeqRecs(m.Data)
	if err != nil {
		return
	}
	floor := make(map[uint32]uint64, len(recs))
	for _, r := range recs {
		if r.Rank == p.myRank {
			floor[r.Ctx] = r.Next
		}
	}
	if len(floor) == 0 {
		return
	}
	kept := p.msgLog[dstRank][:0]
	for _, e := range p.msgLog[dstRank] {
		if next, ok := floor[e.ctx]; ok && e.seq < next {
			gMsglogBytes.Add(-int64(len(e.data)))
			continue
		}
		kept = append(kept, e)
	}
	for i := len(kept); i < len(p.msgLog[dstRank]); i++ {
		p.msgLog[dstRank][i] = nil
	}
	if len(kept) == 0 {
		delete(p.msgLog, dstRank)
	} else {
		p.msgLog[dstRank] = kept
	}
}

// --- Replay state -----------------------------------------------------------

// replayState is the decoded form of a logging-enabled rank's
// checkpoint-coupled protocol state: its sequence counters plus every
// admitted-but-unconsumed message (the sequencer advances recvNext at
// admission, so messages sitting in the stash or the engine's unexpected
// queue at checkpoint time would otherwise be lost to the restart — their
// senders' logs consider them delivered).
type replayState struct {
	collSeq    uint64 // the world comm's collective-call counter
	send, recv []SeqRec
	pending    []*transport.Message // held by the sequencer stash
	unexpected []*transport.Message // admitted into the engine, unclaimed
}

// ErrReplayBuffered is CaptureReplayState's error for a wave taken while a
// rendezvous message is buffered: expected under load, and only costs the
// wave its replay eligibility.
var ErrReplayBuffered = errors.New("core: replay capture with buffered rendezvous message")

// CaptureReplayState serializes this process's replay state — a logging
// rank's checkpoint-coupled state, or the §3.4 fork a substitute hands its
// revived twin; collSeq is the world communicator's collective-call
// counter, which must resume with the protocol counters (a restored
// barrier must tag its rounds where the survivors expect them). It fails —
// the wave is simply not replay-eligible, the fork waits for a later step —
// when the state is not capturable: outstanding retained sends (the caller
// quiesces first, so these are requests the application has not waited
// for), or buffered rendezvous traffic whose payload lives on the sender.
func (p *Replicated) CaptureReplayState(collSeq uint64) ([]byte, error) {
	if p.retained != 0 {
		return nil, fmt.Errorf("core: replay capture with %d retained sends", p.retained)
	}
	st := replayState{collSeq: collSeq}
	p.sendSeq.forEach(func(ctx uint32, rank int, next uint64) {
		st.send = append(st.send, SeqRec{Ctx: ctx, Rank: rank, Next: next})
	})
	p.recvSeq.forEach(func(ctx uint32, rank int, next uint64) {
		st.recv = append(st.recv, SeqRec{Ctx: ctx, Rank: rank, Next: next})
	})
	p.recvSeq.forEachStash(func(ctx uint32, rank int, stash *seqStash) {
		st.pending = stash.collect(st.pending)
	})
	st.unexpected = p.eng.UnexpectedMessages()
	for _, m := range append(append([]*transport.Message(nil), st.pending...), st.unexpected...) {
		if m.Kind != transport.KindEager {
			return nil, fmt.Errorf("%w (%v)", ErrReplayBuffered, m.Kind)
		}
	}
	return encodeReplayState(st), nil
}

func encodeReplayState(st replayState) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, replayMagic)
	b = append(b, replayVersion)
	b = binary.LittleEndian.AppendUint64(b, st.collSeq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.send)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.recv)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.pending)+len(st.unexpected)))
	for _, r := range append(append([]SeqRec(nil), st.send...), st.recv...) {
		b = binary.LittleEndian.AppendUint32(b, r.Ctx)
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(r.Rank)))
		b = binary.LittleEndian.AppendUint64(b, r.Next)
	}
	emit := func(where byte, m *transport.Message) {
		b = append(b, where)
		b = binary.LittleEndian.AppendUint32(b, m.Ctx)
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(m.Tag)))
		b = binary.LittleEndian.AppendUint64(b, m.Seq)
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(m.Src)))
		for _, v := range m.Meta {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Data)))
		b = append(b, m.Data...)
	}
	for _, m := range st.unexpected {
		emit(0, m)
	}
	for _, m := range st.pending {
		emit(1, m)
	}
	footer := ckpt.Seal(b)
	return append(b, footer[:]...)
}

// decodeReplayState parses an encoded replay state, failing closed on any
// truncation, corruption, or malformed record.
func decodeReplayState(b []byte) (replayState, error) {
	var st replayState
	fail := func(format string, args ...any) (replayState, error) {
		return replayState{}, fmt.Errorf("core: replay state "+format, args...)
	}
	if len(b) < replayHeader+ckpt.FooterLen {
		return fail("truncated (%d bytes)", len(b))
	}
	body, err := ckpt.Open(b)
	if err != nil {
		return fail("%w", err)
	}
	if binary.LittleEndian.Uint32(body) != replayMagic {
		return fail("bad magic")
	}
	if body[4] != replayVersion {
		return fail("unknown version %d", body[4])
	}
	st.collSeq = binary.LittleEndian.Uint64(body[5:])
	nSend := int(binary.LittleEndian.Uint32(body[13:]))
	nRecv := int(binary.LittleEndian.Uint32(body[17:]))
	nMsg := int(binary.LittleEndian.Uint32(body[21:]))
	if nSend < 0 || nRecv < 0 || nMsg < 0 {
		return fail("negative counts")
	}
	off := replayHeader
	readRec := func() (SeqRec, bool) {
		if off+seqRecBytes > len(body) {
			return SeqRec{}, false
		}
		r := SeqRec{
			Ctx:  binary.LittleEndian.Uint32(body[off:]),
			Rank: int(int32(binary.LittleEndian.Uint32(body[off+4:]))),
			Next: binary.LittleEndian.Uint64(body[off+8:]),
		}
		off += seqRecBytes
		return r, true
	}
	for i := 0; i < nSend; i++ {
		r, ok := readRec()
		if !ok {
			return fail("send-seq records truncated")
		}
		st.send = append(st.send, r)
	}
	for i := 0; i < nRecv; i++ {
		r, ok := readRec()
		if !ok {
			return fail("recv-seq records truncated")
		}
		st.recv = append(st.recv, r)
	}
	for i := 0; i < nMsg; i++ {
		if off+msgRecHeader > len(body) {
			return fail("message record %d truncated", i)
		}
		where := body[off]
		if where > 1 {
			return fail("message record %d bad placement %d", i, where)
		}
		m := &transport.Message{Kind: transport.KindEager}
		m.Ctx = binary.LittleEndian.Uint32(body[off+1:])
		m.Tag = int(int64(binary.LittleEndian.Uint64(body[off+5:])))
		m.Seq = binary.LittleEndian.Uint64(body[off+13:])
		m.Src = transport.ProcID(int32(binary.LittleEndian.Uint32(body[off+21:])))
		for j := range m.Meta {
			m.Meta[j] = int64(binary.LittleEndian.Uint64(body[off+25+8*j:]))
		}
		dlen := int(binary.LittleEndian.Uint32(body[off+57:]))
		off += msgRecHeader
		if dlen < 0 || off+dlen > len(body) {
			return fail("message record %d payload truncated", i)
		}
		if dlen > 0 {
			m.Data = append([]byte(nil), body[off:off+dlen]...)
		}
		off += dlen
		if where == 0 {
			st.unexpected = append(st.unexpected, m)
		} else {
			st.pending = append(st.pending, m)
		}
	}
	if off != len(body) {
		return fail("trailing bytes")
	}
	return st, nil
}

// ValidateReplayState decodes an encoded replay state and reports whether
// it is intact — the launcher-side pre-flight before relaunching a logging
// rank. Any error means the localized-replay rung is unavailable and the
// run must fall back to a global rollback.
func ValidateReplayState(b []byte) error {
	_, err := decodeReplayState(b)
	return err
}

// RestoreReplayState installs a decoded replay state on the freshly built
// protocol layer of a relaunched logging-enabled rank or a forked replica,
// returning the world communicator's collective-call counter for the
// harness to restore. The process resumes exactly where the capture left
// off: sequence counters continue, admitted-but-unconsumed messages
// reappear in the stash / unexpected queue, and everything newer arrives
// through the survivors' log or retention replays.
func (p *Replicated) RestoreReplayState(b []byte) (collSeq uint64, err error) {
	st, err := decodeReplayState(b)
	if err != nil {
		return 0, err
	}
	p.sendSeq = newSeqTable(p.layout.N, false)
	for _, r := range st.send {
		p.sendSeq.at(r.Ctx).next[r.Rank] = r.Next
	}
	p.recvSeq = newSeqTable(p.layout.N, true)
	for _, r := range st.recv {
		p.recvSeq.at(r.Ctx).next[r.Rank] = r.Next
	}
	for _, m := range st.pending {
		m.Dst = p.proc.ID()
		rank := int(m.Meta[mpi.MetaSrcRank])
		rc := p.recvSeq.at(m.Ctx)
		// Stashed messages are strictly ahead of the counter by the capture
		// invariant; anything at or below it is a duplicate — drop it
		// rather than underflow the ring offset.
		if m.Seq > rc.next[rank] && rc.stash[rank].insert(rc.next[rank], m) {
			gSeqStashDepth.Add(1)
		}
	}
	for _, m := range st.unexpected {
		m.Dst = p.proc.ID()
	}
	p.eng.SeedUnexpected(st.unexpected)
	p.alive[int(p.proc.ID())] = true
	return st.collSeq, nil
}
