package core

import (
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/mpi"
	"repro/internal/transport"
)

func TestGateDefersOneMessagePerDestination(t *testing.T) {
	// After blocking Send #k to a destination returns, every earlier send
	// to it is acknowledged: at most send #k itself is still retained, so
	// the worlds drift by at most one message per destination. Rank 0
	// alternates between two destinations, which check what they receive.
	const rounds = 200
	protos := miniWorld(t, 3, 2, ModeParallel, Options{}, func(c *mpi.Comm, p *Replicated) {
		buf := make([]byte, 8)
		if c.Rank() != 0 {
			for k := uint64(0); k < rounds; k++ {
				c.Recv(0, 7, buf)
				if got := binary.LittleEndian.Uint64(buf); got != k {
					t.Errorf("rank %d: message %d carries %d", c.Rank(), k, got)
				}
			}
			return
		}
		for k := uint64(0); k < rounds; k++ {
			binary.LittleEndian.PutUint64(buf, k)
			for dst := 1; dst <= 2; dst++ {
				c.Send(mpi.Rank(dst), 7, buf)
				slot := &p.sendSeq.at(c.CtxP2P()).ret[dst]
				if e := slot.head; e != nil && (e.seq != k || e.next != nil) {
					t.Errorf("after Send #%d to rank %d: entry #%d still retained (next %v)", k, dst, e.seq, e.next)
				}
			}
			if n := p.RetainedCount(); n > 2 {
				t.Errorf("after round %d: %d retained entries for 2 destinations", k, n)
			}
		}
		p.Quiesce()
		if n := p.RetainedCount(); n != 0 {
			t.Errorf("%d retained entries after Quiesce", n)
		}
	})
	for id, p := range protos {
		if n := p.earlyTotal(); n != 0 {
			t.Errorf("proc %d: %d dangling early-ack records", id, n)
		}
	}
}

func TestGateOutOfOrderAcksAndRecycledEntries(t *testing.T) {
	// Acks reach a slot out of sequence order when the receiver takes tags
	// out of order. The gate of eager send #k is "nothing below #k is
	// unacknowledged, or #k itself is acknowledged", a rendezvous send's is
	// "#k is acknowledged"; entries recycled in between must neither open
	// nor block a gate that was handed out earlier.
	layout := Layout{N: 2, R: 2}
	nw := transport.NewNetwork(layout.Procs(), nil)
	defer nw.Close()
	proc := mpi.NewProc(nw, layout.Phys(0, 0))
	p := NewReplicated(proc, layout, ModeParallel, detect.NewService(nw), Options{})
	world := mpi.NewWorld(proc, p, 2)
	ctx, acker := world.CtxP2P(), layout.Phys(1, 1)

	r0 := world.Isend(1, 0, []byte{0})
	r1 := world.Isend(1, 1, []byte{1})
	r2 := world.Isend(1, 2, []byte{2})
	big := world.Isend(1, 3, make([]byte, proc.Engine().EagerLimit+1))
	if !r0.Done() {
		t.Error("#0 has no predecessor and must complete at once")
	}
	if r1.Done() || r2.Done() {
		t.Error("#1 and #2 completed with #0 unacknowledged")
	}
	p.applyAck(ctx, 2, acker) // the receiver took tag 2 first
	if !r2.Done() {
		t.Error("#2 is acknowledged itself and must complete")
	}
	if r1.Done() {
		t.Error("#1 completed with #0 and #1 unacknowledged")
	}
	p.applyAck(ctx, 0, acker)
	if !r1.Done() {
		t.Error("#1 must complete once #0 is acknowledged")
	}
	// Entries #0 and #2 are on the free list; #4 and #5 reuse them.
	r4 := world.Isend(1, 4, []byte{4})
	r5 := world.Isend(1, 5, []byte{5})
	if r4.Done() || r5.Done() {
		t.Error("#4/#5 completed with #1 unacknowledged")
	}
	if !r0.Done() || !r2.Done() {
		t.Error("a recycled entry closed a gate that was open")
	}
	p.applyAck(ctx, 1, acker)
	p.applyAck(ctx, 3, acker)
	if !r4.Done() {
		t.Error("#4 must complete once #0..#3 are acknowledged")
	}
	if r5.Done() {
		t.Error("#5 completed with #4 unacknowledged")
	}
	proc.Engine().CancelSendsTo(layout.Phys(0, 1)) // nobody answers the RTS
	if !big.Done() {
		t.Error("rendezvous #3 must complete on its own ack")
	}
	p.applyAck(ctx, 4, acker)
	p.applyAck(ctx, 5, acker)
	if !r5.Done() || p.RetainedCount() != 0 {
		t.Errorf("after every ack: #5 done=%v, %d retained", r5.Done(), p.RetainedCount())
	}
}

func TestGateSubstituteResendsExactlyTheUnackedEntry(t *testing.T) {
	// A sender dies holding one unacknowledged deferred entry: its twin,
	// the substitute, re-sends to the dead world's receiver exactly the
	// message that receiver has not acknowledged — not the acknowledged
	// one before it — and that receiver's sequencer admits the original of
	// the first and the re-send of the second, once each, in order.
	layout := Layout{N: 2, R: 2}
	nw := transport.NewNetwork(layout.Procs(), nil)
	defer nw.Close()
	det := detect.NewService(nw)
	sub, dead, rcv := layout.Phys(0, 0), layout.Phys(1, 0), layout.Phys(1, 1)

	proc := mpi.NewProc(nw, sub)
	p := NewReplicated(proc, layout, ModeParallel, det, Options{})
	world := mpi.NewWorld(proc, p, 2)
	rproc := mpi.NewProc(nw, rcv)
	rp := NewReplicated(rproc, layout, ModeParallel, det, Options{})
	rworld := mpi.NewWorld(rproc, rp, 2)

	world.Isend(1, 0, []byte{10})
	world.Isend(1, 0, []byte{11})
	p.applyAck(world.CtxP2P(), 0, rcv)
	if n := p.RetainedCount(); n != 1 {
		t.Fatalf("%d retained entries, want #1 alone", n)
	}
	// The dead twin delivered #0 to the receiver before it died.
	nw.Endpoint(dead).Send(&transport.Message{
		Dst: rcv, Kind: transport.KindEager, Ctx: world.CtxP2P(), Seq: 0, Data: []byte{10},
		Meta: [4]int64{mpi.MetaSrcRank: 0, mpi.MetaDstRank: 1, mpi.MetaWorld: 1},
	})
	before := mSubstitutions.Value()
	p.onFailure(dead)
	rp.onFailure(dead)
	if mSubstitutions.Value() != before+1 {
		t.Fatal("the survivor did not take over")
	}
	if n := p.RetainedCount(); n != 0 {
		t.Errorf("%d retained entries after the take-over converted the acker", n)
	}
	buf := make([]byte, 1)
	for want := byte(10); want <= 11; want++ {
		rworld.Recv(0, 0, buf)
		if buf[0] != want {
			t.Fatalf("receiver got %d, want %d", buf[0], want)
		}
	}
	rproc.Engine().Progress()
	if n := rproc.Engine().UnexpectedLen() + rp.stashTotal(); n != 0 {
		t.Errorf("%d messages beyond the two sent reached the receiver", n)
	}
}

func TestAckWakeOnlyGateWaiters(t *testing.T) {
	// A process parked in a plain Recv is not woken by acknowledgements; a
	// process parked on an ack gate is.
	layout := Layout{N: 2, R: 2}
	nw := transport.NewNetwork(layout.Procs(), nil)
	defer nw.Close()
	self, acker, peer := layout.Phys(0, 0), layout.Phys(1, 1), layout.Phys(0, 1)
	ep := nw.Endpoint(self)
	parked := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !ep.Parked() {
			if time.Now().After(deadline) {
				t.Fatal("process never parked")
			}
			runtime.Gosched()
		}
	}

	ctxc := make(chan uint32, 1)
	step := make(chan struct{})
	go func() {
		defer close(step)
		defer func() { // the failure path kills this process to free it
			if rec := recover(); rec != nil {
				if _, crashed := mpi.ErrCrashed(rec); !crashed {
					panic(rec)
				}
			}
		}()
		proc := mpi.NewProc(nw, self)
		p := NewReplicated(proc, layout, ModeParallel, detect.NewService(nw), Options{})
		world := mpi.NewWorld(proc, p, 2)
		ctxc <- world.CtxP2P()
		world.Recv(1, 5, make([]byte, 1))
		step <- struct{}{}
		world.Send(1, 6, []byte{1}) // #0: no predecessor
		world.Send(1, 6, []byte{2}) // #1: parks until #0 is acknowledged
	}()
	ctx := <-ctxc

	parked()
	for i := 0; i < 1000; i++ {
		nw.Endpoint(acker).Send(&transport.Message{Dst: self, Kind: transport.KindAck, Ctx: ctx, Seq: uint64(1000 + i)})
	}
	if n := ep.Wakeups(); n != 0 || !ep.Parked() {
		t.Fatalf("plain Recv: %d wake-ups for 1000 acks, parked=%v", n, ep.Parked())
	}
	nw.Endpoint(peer).Send(&transport.Message{
		Dst: self, Kind: transport.KindEager, Ctx: ctx, Tag: 5, Seq: 0, Data: []byte{9},
		Meta: [4]int64{mpi.MetaSrcRank: 1, mpi.MetaDstRank: 0, mpi.MetaWorld: 0},
	})
	<-step

	parked()
	before := ep.Wakeups()
	nw.Endpoint(acker).Send(&transport.Message{Dst: self, Kind: transport.KindAck, Ctx: ctx, Seq: 0})
	select {
	case <-step:
	case <-time.After(5 * time.Second):
		nw.Kill(self)
		t.Fatal("the ack did not wake the waiter on the gate")
	}
	if ep.Wakeups() == before {
		t.Error("gate waiter finished without a wake-up")
	}
}
