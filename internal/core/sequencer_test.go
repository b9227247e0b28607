package core

import (
	"testing"

	"repro/internal/detect"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// White-box tests of the receiver sequencer (DESIGN.md §6 mechanism 1):
// out-of-order arrivals are held back and admitted into PML matching in
// per-(ctx, source rank) sequence order; duplicates — both of admitted
// and of stashed messages — are dropped. Out-of-order arrivals happen in
// production only during the replica→substitute switchover, where a
// substitute's re-send can race the dead sender's in-flight originals;
// these tests drive the hook directly to pin the behaviour.

// seqHarness builds one replicated process and returns its engine plus
// the OnArrive hook installed by the protocol layer.
func seqHarness(t *testing.T) (*mpi.Engine, func(*transport.Message) bool) {
	t.Helper()
	layout := Layout{N: 2, R: 2}
	nw := transport.NewNetwork(layout.Procs(), nil)
	t.Cleanup(func() { nw.Close() })
	det := detect.NewService(nw)
	proc := mpi.NewProc(nw, 0)
	NewReplicated(proc, layout, ModeParallel, det, Options{})
	eng := proc.Engine()
	if eng.OnArrive == nil {
		t.Fatal("protocol did not install OnArrive")
	}
	return eng, eng.OnArrive
}

// eagerMsg crafts an inbound application message from logical rank 1 with
// the given sequence number; the tag doubles as an identity marker.
func eagerMsg(seq uint64, tag int) *transport.Message {
	var meta [4]int64
	meta[mpi.MetaSrcRank] = 1
	meta[mpi.MetaDstRank] = 0
	return &transport.Message{
		Src: 1, Dst: 0, Kind: transport.KindEager,
		Ctx: 2, Tag: tag, Seq: seq, Meta: meta, Data: []byte{byte(seq)},
	}
}

func TestSequencerReordersArrivals(t *testing.T) {
	eng, arrive := seqHarness(t)

	// Deliver seqs 2, 1, 0: nothing may enter matching until 0 arrives,
	// then all three must enter in order.
	arrive(eagerMsg(2, 102))
	arrive(eagerMsg(1, 101))
	if got := eng.UnexpectedLen(); got != 0 {
		t.Fatalf("out-of-order arrivals entered matching early: %d", got)
	}
	arrive(eagerMsg(0, 100))
	if got := eng.UnexpectedLen(); got != 3 {
		t.Fatalf("admitted %d messages, want 3", got)
	}
	// Matching order must be 100, 101, 102: wildcard receives drain the
	// unexpected queue in admission order.
	for wantTag := 100; wantTag <= 102; wantTag++ {
		pr := eng.Irecv(mpi.AnyProc, mpi.AnySource, nil, 2, mpi.AnyTag, make([]byte, 1))
		if got := pr.PStatus().Tag; got != wantTag {
			t.Fatalf("admission order broken: got tag %d, want %d (0: nothing matched)", got, wantTag)
		}
	}
}

func TestSequencerDropsDuplicateOfAdmitted(t *testing.T) {
	eng, arrive := seqHarness(t)
	arrive(eagerMsg(0, 100))
	arrive(eagerMsg(0, 100)) // substitute re-send racing the original
	if got := eng.UnexpectedLen(); got != 1 {
		t.Fatalf("duplicate admitted: %d messages", got)
	}
}

func TestSequencerDropsDuplicateOfStashed(t *testing.T) {
	eng, arrive := seqHarness(t)
	arrive(eagerMsg(1, 101))
	arrive(eagerMsg(1, 101)) // duplicate while still held back
	arrive(eagerMsg(0, 100))
	if got := eng.UnexpectedLen(); got != 2 {
		t.Fatalf("stashed duplicate admitted: %d messages, want 2", got)
	}
}

func TestSequencerIndependentChannels(t *testing.T) {
	eng, arrive := seqHarness(t)
	// A gap on (ctx 2, rank 1) must not hold back a different context.
	arrive(eagerMsg(1, 101)) // stashed: seq 0 missing
	other := eagerMsg(0, 300)
	other.Ctx = 4
	arrive(other)
	if got := eng.UnexpectedLen(); got != 1 {
		t.Fatalf("independent channel blocked: %d admitted, want 1", got)
	}
}

func TestSequencerFlushReleasesDrainedSlots(t *testing.T) {
	// flush re-slices the pending queue as it drains; the backing array
	// survives for the rest of the burst, so drained slots must be nil'd
	// or the pooled messages they point at stay reachable.
	layout := Layout{N: 2, R: 2}
	nw := transport.NewNetwork(layout.Procs(), nil)
	t.Cleanup(func() { nw.Close() })
	det := detect.NewService(nw)
	proc := mpi.NewProc(nw, 0)
	p := NewReplicated(proc, layout, ModeParallel, det, Options{})
	arrive := proc.Engine().OnArrive

	arrive(eagerMsg(2, 102))
	arrive(eagerMsg(1, 101))
	if got := p.stashTotal(); got != 2 {
		t.Fatalf("stashed %d messages, want 2", got)
	}
	ring := p.recvSeq.at(2).stash[1].buf
	arrive(eagerMsg(0, 100)) // fills the gap: both stashed messages drain
	if got := p.stashTotal(); got != 0 {
		t.Fatalf("stash not empty after flush: %d messages", got)
	}
	for i, m := range ring {
		if m != nil {
			t.Errorf("drained ring slot %d still pins a message (seq %d)", i, m.Seq)
		}
	}
	for i, m := range p.injectBuf[:cap(p.injectBuf)] {
		if m != nil {
			t.Errorf("inject buffer slot %d still pins a message (seq %d)", i, m.Seq)
		}
	}
}

func TestSequencerLongGapFlush(t *testing.T) {
	eng, arrive := seqHarness(t)
	// Stash a long out-of-order run, then fill the gap: everything must
	// flush at once, in order.
	for seq := uint64(5); seq >= 1; seq-- {
		arrive(eagerMsg(seq, 100+int(seq)))
	}
	if eng.UnexpectedLen() != 0 {
		t.Fatal("flushed before the gap was filled")
	}
	arrive(eagerMsg(0, 100))
	if got := eng.UnexpectedLen(); got != 6 {
		t.Fatalf("admitted %d, want 6", got)
	}
	for wantTag := 100; wantTag <= 105; wantTag++ {
		pr := eng.Irecv(mpi.AnyProc, mpi.AnySource, nil, 2, mpi.AnyTag, make([]byte, 1))
		if got := pr.PStatus().Tag; got != wantTag {
			t.Fatalf("flush order broken: got %d, want %d", got, wantTag)
		}
	}
}
