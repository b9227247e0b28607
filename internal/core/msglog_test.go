package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/detect"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// logHarness builds one replicated process with sender-based logging armed
// for rank 1 of a 2-rank, degree-[2,1] layout.
func logHarness(t *testing.T) *Replicated {
	t.Helper()
	layout, err := NewLayout(2, 2, []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	nw := transport.NewNetwork(layout.Procs(), nil)
	t.Cleanup(func() { nw.Close() })
	det := detect.NewService(nw)
	proc := mpi.NewProc(nw, 0)
	return NewReplicated(proc, layout, ModeParallel, det, Options{LogDests: []bool{false, true}})
}

// TestSeqRecsRoundTrip pins the truncation-ack codec: every prefix
// truncation and a checksum flip must fail closed; the round trip must be
// exact.
func TestSeqRecsRoundTrip(t *testing.T) {
	recs := []SeqRec{
		{Ctx: 1, Rank: 0, Next: 7},
		{Ctx: 2, Rank: 3, Next: 1 << 40},
		{Ctx: 9, Rank: 1, Next: 0},
	}
	enc := EncodeSeqRecs(nil, recs)
	got, err := DecodeSeqRecs(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeSeqRecs(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(enc))
		}
	}
	for _, off := range []int{0, 4, 9, len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0x40
		if _, err := DecodeSeqRecs(bad); err == nil {
			t.Fatalf("bit flip at %d decoded without error", off)
		}
	}
	if _, err := DecodeSeqRecs(append(enc, 0)); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
}

// TestReplayStateRoundTrip pins the replay-state codec, the second half
// of the log-record format: counters, placement, and buffered message
// payloads must survive the round trip byte-for-byte, and corruption or
// truncation must fail closed.
func TestReplayStateRoundTrip(t *testing.T) {
	st := replayState{
		collSeq: 41,
		send:    []SeqRec{{Ctx: 1, Rank: 0, Next: 12}, {Ctx: 7, Rank: 1, Next: 3}},
		recv:    []SeqRec{{Ctx: 1, Rank: 0, Next: 11}},
		unexpected: []*transport.Message{{
			Kind: transport.KindEager, Ctx: 1, Tag: 33, Seq: 10, Src: 2,
			Meta: [4]int64{0, 1, 0, 3}, Data: []byte{9, 8, 7},
		}},
		pending: []*transport.Message{{
			Kind: transport.KindEager, Ctx: 1, Tag: 44, Seq: 13, Src: 2,
			Meta: [4]int64{0, 1, 0, 0},
		}},
	}
	enc := encodeReplayState(st)
	got, err := decodeReplayState(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.collSeq != st.collSeq {
		t.Errorf("collSeq %d, want %d", got.collSeq, st.collSeq)
	}
	if len(got.send) != 2 || got.send[1] != st.send[1] {
		t.Errorf("send recs %+v", got.send)
	}
	if len(got.recv) != 1 || got.recv[0] != st.recv[0] {
		t.Errorf("recv recs %+v", got.recv)
	}
	if len(got.unexpected) != 1 || len(got.pending) != 1 {
		t.Fatalf("placement lost: %d unexpected, %d pending", len(got.unexpected), len(got.pending))
	}
	u := got.unexpected[0]
	if u.Tag != 33 || u.Seq != 10 || u.Src != 2 || !bytes.Equal(u.Data, []byte{9, 8, 7}) {
		t.Errorf("unexpected message mangled: %+v", u)
	}
	if got.pending[0].Tag != 44 || got.pending[0].Len() != 0 {
		t.Errorf("pending message mangled: %+v", got.pending[0])
	}

	if err := ValidateReplayState(enc); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc); cut++ {
		if err := ValidateReplayState(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d validated", cut, len(enc))
		}
	}
	for off := 0; off < len(enc); off++ {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0x01
		if err := ValidateReplayState(bad); err == nil {
			t.Fatalf("bit flip at %d validated — garbage would reach the application", off)
		}
	}
}

// TestMsglogFramesFooter covers both codecs' CRC-32C footer: every single
// bit flip of an encoded frame fails closed with a typed ckpt error, and a
// frame closed by the FNV-64a footer older builds wrote is refused as a
// format error, never decoded.
func TestMsglogFramesFooter(t *testing.T) {
	frames := []struct {
		name   string
		enc    []byte
		decode func([]byte) error
	}{
		{"seq-rec", EncodeSeqRecs(nil, []SeqRec{{Ctx: 2, Rank: 1, Next: 9}, {Ctx: 3, Rank: 0, Next: 1 << 33}}),
			func(b []byte) error { _, err := DecodeSeqRecs(b); return err }},
		{"replay-state", encodeReplayState(replayState{collSeq: 5,
			send: []SeqRec{{Ctx: 1, Rank: 0, Next: 2}},
			unexpected: []*transport.Message{{Kind: transport.KindEager, Ctx: 1,
				Tag: 5, Seq: 1, Src: 2, Data: []byte{1, 2, 3}}}}),
			ValidateReplayState},
	}
	for _, f := range frames {
		if err := f.decode(f.enc); err != nil {
			t.Fatalf("%s: intact frame: %v", f.name, err)
		}
		for bit := 0; bit < 8*len(f.enc); bit++ {
			bad := append([]byte(nil), f.enc...)
			bad[bit/8] ^= 1 << (bit % 8)
			err := f.decode(bad)
			if !errors.Is(err, ckpt.ErrCorrupt) && !errors.Is(err, ckpt.ErrFormat) {
				t.Fatalf("%s: flipping bit %d gave %v, want a footer error", f.name, bit, err)
			}
		}
		body := f.enc[:len(f.enc)-ckpt.FooterLen]
		h := fnv.New64a()
		h.Write(body)
		legacy := binary.LittleEndian.AppendUint64(append([]byte(nil), body...), h.Sum64())
		if err := f.decode(legacy); !errors.Is(err, ckpt.ErrFormat) {
			t.Fatalf("%s: legacy FNV-64a footer gave %v, want ckpt.ErrFormat", f.name, err)
		}
	}
}

// TestMessageLogTruncation drives the sender-side log lifecycle: sends to
// the logging-enabled rank accumulate, a truncation ack prunes exactly
// the acknowledged prefix, and a corrupt ack frame is ignored rather than
// over-pruning.
func TestMessageLogTruncation(t *testing.T) {
	p := logHarness(t)
	if p.LogEnabled(0) || !p.LogEnabled(1) {
		t.Fatalf("logging set wrong: rank0=%v rank1=%v", p.LogEnabled(0), p.LogEnabled(1))
	}
	for seq := uint64(0); seq < 5; seq++ {
		p.logSend(3, 1, 10, seq, [4]int64{0, 1, 0, 1}, []byte{byte(seq)})
	}
	if p.LoggedCount() != 5 {
		t.Fatalf("logged %d, want 5", p.LoggedCount())
	}

	// A corrupt ack frame must be ignored (fail closed = keep the log).
	enc := EncodeSeqRecs(nil, []SeqRec{{Ctx: 3, Rank: 0, Next: 4}})
	bad := append([]byte(nil), enc...)
	bad[len(bad)-1] ^= 0xFF
	p.onLogTruncate(&transport.Message{Meta: [4]int64{1}, Data: bad})
	if p.LoggedCount() != 5 {
		t.Fatalf("corrupt ack pruned the log: %d left", p.LoggedCount())
	}

	// The real ack prunes seqs < 3 on ctx 3; a foreign rank's record must
	// not touch our log.
	enc = EncodeSeqRecs(nil, []SeqRec{{Ctx: 3, Rank: 0, Next: 3}, {Ctx: 3, Rank: 1, Next: 5}})
	p.onLogTruncate(&transport.Message{Meta: [4]int64{1}, Data: enc})
	if p.LoggedCount() != 2 {
		t.Fatalf("after ack: %d entries, want 2 (seqs 3,4)", p.LoggedCount())
	}
}

// FuzzReplayStateDecode hammers the replay-state decoder: arbitrary bytes
// must produce an error or a state whose re-encoding is self-consistent —
// never a panic. The decoder guards the localized-replay restart path, so
// "fail closed" here is what keeps a corrupt store escalating to global
// rollback instead of delivering garbage.
func FuzzReplayStateDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeReplayState(replayState{collSeq: 3,
		send: []SeqRec{{Ctx: 1, Rank: 0, Next: 2}},
		unexpected: []*transport.Message{{Kind: transport.KindEager, Ctx: 1,
			Tag: 5, Seq: 1, Src: 2, Data: []byte{1}}}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := decodeReplayState(b)
		if err != nil {
			return
		}
		// A frame that decodes must re-encode to the exact input bytes —
		// the format has no slack for smuggled garbage.
		if !bytes.Equal(encodeReplayState(st), b) {
			t.Fatalf("accepted frame does not round-trip")
		}
	})
}

// FuzzSeqRecsDecode is the same property for the truncation-ack frames.
func FuzzSeqRecsDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeSeqRecs(nil, []SeqRec{{Ctx: 2, Rank: 1, Next: 9}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, err := DecodeSeqRecs(b)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeSeqRecs(nil, recs), b) {
			t.Fatalf("accepted frame does not round-trip")
		}
	})
}
