package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// miniWorld wires a full replicated world (n ranks, r replicas) and runs
// fn on every physical process, returning per-proc protocol layers for
// inspection.
func miniWorld(t *testing.T, n, r int, mode Mode, opts Options,
	fn func(world *mpi.Comm, p *Replicated)) map[transport.ProcID]*Replicated {
	t.Helper()
	return miniWorldLayout(t, Layout{N: n, R: r}, mode, opts, fn)
}

// miniWorldLayout is miniWorld for an arbitrary (possibly degree-aware)
// layout.
func miniWorldLayout(t *testing.T, layout Layout, mode Mode, opts Options,
	fn func(world *mpi.Comm, p *Replicated)) map[transport.ProcID]*Replicated {
	t.Helper()
	n := layout.N
	nw := transport.NewNetwork(layout.Procs(), nil)
	det := detect.NewService(nw)
	protos := make(map[transport.ProcID]*Replicated, layout.Procs())
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, layout.Procs())
	for i := 0; i < layout.Procs(); i++ {
		wg.Add(1)
		go func(id transport.ProcID) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := mpi.ErrCrashed(rec); !ok {
						errs <- fmt.Errorf("proc %d: %v", id, rec)
					}
				}
			}()
			proc := mpi.NewProc(nw, id)
			p := NewReplicated(proc, layout, mode, det, opts)
			mu.Lock()
			protos[id] = p
			mu.Unlock()
			world := mpi.NewWorld(proc, p, n)
			fn(world, p)
		}(transport.ProcID(i))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		for i := 0; i < layout.Procs(); i++ {
			nw.Kill(transport.ProcID(i))
		}
		<-done
		t.Fatal("miniWorld deadlock")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	nw.Close()
	return protos
}

// earlyTotal counts the early-ack records across every retention slot.
func (p *Replicated) earlyTotal() int {
	n := 0
	for _, sc := range p.sendSeq.ctxs {
		for i := range sc.ret {
			n += len(sc.ret[i].early)
		}
	}
	return n
}

func TestSequencerStateDrainsAfterRun(t *testing.T) {
	protos := miniWorld(t, 2, 2, ModeParallel, Options{}, func(c *mpi.Comm, p *Replicated) {
		buf := make([]byte, 8)
		for i := 0; i < 20; i++ {
			if c.Rank() == 0 {
				c.Send(1, 0, buf)
				c.Recv(1, 1, buf)
			} else {
				c.Recv(0, 0, buf)
				c.Send(0, 1, buf)
			}
		}
		c.Barrier()
		p.Quiesce()
	})
	for id, p := range protos {
		if got := p.stashTotal(); got != 0 {
			t.Errorf("proc %d: %d stashed messages after quiescence", id, got)
		}
		if got := p.earlyTotal(); got != 0 {
			t.Errorf("proc %d: %d dangling early-ack records", id, got)
		}
		if got := p.RetainedCount(); got != 0 {
			t.Errorf("proc %d: %d retained entries", id, got)
		}
	}
}

func TestSequenceNumbersAdvanceIdenticallyAcrossReplicas(t *testing.T) {
	protos := miniWorld(t, 3, 2, ModeParallel, Options{}, func(c *mpi.Comm, p *Replicated) {
		c.AllreduceFloat64(1, mpi.OpSum)
		if c.Rank() == 0 {
			c.Send(2, 9, []byte{1})
			c.Send(2, 9, []byte{2})
		}
		if c.Rank() == 2 {
			c.Recv(0, 9, make([]byte, 1))
			c.Recv(0, 9, make([]byte, 1))
		}
		c.Barrier()
	})
	layout := Layout{N: 3, R: 2}
	for rank := 0; rank < 3; rank++ {
		a := protos[layout.Phys(0, rank)]
		b := protos[layout.Phys(1, rank)]
		aSend, bSend := counters(a.sendSeq), counters(b.sendSeq)
		for k, v := range aSend {
			if bSend[k] != v {
				t.Errorf("rank %d: sendSeq[%v] differs: %d vs %d", rank, k, v, bSend[k])
			}
		}
		aRecv, bRecv := counters(a.recvSeq), counters(b.recvSeq)
		for k, v := range aRecv {
			if bRecv[k] != v {
				t.Errorf("rank %d: recvNext[%v] differs: %d vs %d", rank, k, v, bRecv[k])
			}
		}
	}
}

// seqKey indexes per-(context, peer logical rank) sequence state.
type seqKey struct {
	ctx  uint32
	rank int
}

// counters collects a table's nonzero counters by (ctx, rank).
func counters(t *seqTable) map[seqKey]uint64 {
	out := make(map[seqKey]uint64)
	t.forEach(func(ctx uint32, rank int, next uint64) { out[seqKey{ctx, rank}] = next })
	return out
}

func TestSubstituteElectionDeterminism(t *testing.T) {
	layout := Layout{N: 2, R: 3}
	nw := transport.NewNetwork(layout.Procs(), nil)
	defer nw.Close()
	det := detect.NewService(nw)
	proc := mpi.NewProc(nw, layout.Phys(0, 0))
	p := NewReplicated(proc, layout, ModeParallel, det, Options{})

	if got := p.electSubstitute(1); got != 0 {
		t.Errorf("all alive: substitute %d, want 0", got)
	}
	p.alive[int(layout.Phys(0, 1))] = false
	if got := p.electSubstitute(1); got != 1 {
		t.Errorf("rep0 dead: substitute %d, want 1", got)
	}
	p.alive[int(layout.Phys(1, 1))] = false
	if got := p.electSubstitute(1); got != 2 {
		t.Errorf("rep0+1 dead: substitute %d, want 2", got)
	}
	p.alive[int(layout.Phys(2, 1))] = false
	if got := p.electSubstitute(1); got != -1 {
		t.Errorf("all dead: substitute %d, want -1", got)
	}
}

func TestInitialFailuresApplyPartialTopology(t *testing.T) {
	// A protocol constructed into a world with pre-dead replicas must
	// start with the substituted topology (partial replication).
	layout := Layout{N: 2, R: 2}
	nw := transport.NewNetwork(layout.Procs(), nil)
	defer nw.Close()
	det := detect.NewService(nw)
	nw.Kill(layout.Phys(1, 1)) // rank 1 unreplicated

	// World-1 rank 0's view: physicalSrc[1] must point at the surviving
	// replica, and its dests for rank 1 must be empty (it waits for the
	// world-0 copy's ack instead).
	p10 := NewReplicated(mpi.NewProc(nw, layout.Phys(1, 0)), layout, ModeParallel, det, Options{})
	if p10.physicalSrc[1] != layout.Phys(0, 1) {
		t.Errorf("physicalSrc[1] = %d", p10.physicalSrc[1])
	}
	if len(p10.physicalDests[1]) != 0 {
		t.Errorf("dests[1] = %v, want empty", p10.physicalDests[1])
	}

	// The survivor of rank 1 must serve both worlds.
	p01 := NewReplicated(mpi.NewProc(nw, layout.Phys(0, 1)), layout, ModeParallel, det, Options{})
	if len(p01.physicalDests[0]) != 2 {
		t.Errorf("survivor dests[0] = %v, want both replicas of rank 0", p01.physicalDests[0])
	}
	if p01.substitute[1] != 0 {
		t.Errorf("substitute[1] = %d, want 0", p01.substitute[1])
	}
}

func TestDegreeAwareConstructionTopology(t *testing.T) {
	// The dense degree-aware layout builds the partial topology directly
	// at construction — no phantom kills, no detector traffic. degrees
	// [2,1]: procs 0 (r0w0), 1 (r1w0), 2 (r0w1).
	layout, err := NewLayout(2, 2, []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	nw := transport.NewNetwork(layout.Procs(), nil)
	defer nw.Close()
	det := detect.NewService(nw)

	// World-1 rank 0's view: physicalSrc[1] points at rank 1's only
	// replica, and its dests for rank 1 are empty (it waits for the
	// world-0 copy's ack instead).
	p01 := NewReplicated(mpi.NewProc(nw, layout.Phys(1, 0)), layout, ModeParallel, det, Options{})
	if p01.physicalSrc[1] != layout.Phys(0, 1) {
		t.Errorf("physicalSrc[1] = %d", p01.physicalSrc[1])
	}
	if len(p01.physicalDests[1]) != 0 {
		t.Errorf("dests[1] = %v, want empty", p01.physicalDests[1])
	}

	// Rank 1's only replica serves both worlds: it emits to every
	// replica of rank 0 and substitutes for its own missing world-1
	// instance.
	p10 := NewReplicated(mpi.NewProc(nw, layout.Phys(0, 1)), layout, ModeParallel, det, Options{})
	if len(p10.physicalDests[0]) != 2 {
		t.Errorf("survivor dests[0] = %v, want both replicas of rank 0", p10.physicalDests[0])
	}
	if p10.substitute[1] != 0 {
		t.Errorf("substitute[1] = %d, want 0", p10.substitute[1])
	}
}

func TestDegreeAwareWorldRunsAndDrains(t *testing.T) {
	// A full run over a degree-aware layout (degrees [2,1,2]): every
	// process computes, the ack machinery converges, and no protocol
	// state leaks. SDC is on to pin the partial-layout hash accounting:
	// receptions from the unreplicated rank must not accumulate local
	// hashes that no peer replica will ever pair.
	layout, err := NewLayout(3, 2, []int{2, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if layout.Procs() != 5 {
		t.Fatalf("procs = %d, want 5", layout.Procs())
	}
	protos := miniWorldLayout(t, layout, ModeParallel, Options{SDC: true}, func(c *mpi.Comm, p *Replicated) {
		sum := c.AllreduceFloat64(float64(c.Rank())+1, mpi.OpSum)
		if sum != 6 {
			t.Errorf("allreduce = %v", sum)
		}
		buf := make([]byte, 8)
		me, size := int(c.Rank()), c.Size()
		for i := 0; i < 10; i++ {
			next := mpi.Rank((me + 1) % size)
			prev := mpi.Rank((me + size - 1) % size)
			if me%2 == 0 {
				c.Send(next, 0, buf)
				c.Recv(prev, 0, buf)
			} else {
				c.Recv(prev, 0, buf)
				c.Send(next, 0, buf)
			}
		}
		c.Barrier()
		p.Quiesce()
	})
	if len(protos) != 5 {
		t.Fatalf("ran %d processes, want 5", len(protos))
	}
	for id, p := range protos {
		if got := p.RetainedCount(); got != 0 {
			t.Errorf("proc %d: %d retained entries after quiescence", id, got)
		}
		if got := p.earlyTotal(); got != 0 {
			t.Errorf("proc %d: %d dangling early-ack records", id, got)
		}
		if p.SDCDetected() != 0 {
			t.Errorf("proc %d: false SDC positives: %d", id, p.SDCDetected())
		}
		// Receptions from the unreplicated rank must never store a local
		// hash: no peer replica exists to pair it, so each one would be a
		// permanent leak. (Degree-2 pairings may legitimately still be in
		// flight when a fast process stops progressing, so only the
		// degree-1 invariant is asserted.)
		for key := range p.sdcLocal {
			if layout.Degree(key.dstRank) < 2 {
				t.Errorf("proc %d: unpairable local hash for degree-1 rank %d", id, key.dstRank)
			}
		}
	}
}

func TestEarlyAcksSweptWhenAckerDies(t *testing.T) {
	// The earlyAcks leak: an ack recorded from a process that then dies
	// can never be consumed (Isend checks early acks only for alive
	// destinations), so the failure handling must sweep it.
	layout := Layout{N: 2, R: 2}
	nw := transport.NewNetwork(layout.Procs(), nil)
	defer nw.Close()
	det := detect.NewService(nw)
	p := NewReplicated(mpi.NewProc(nw, layout.Phys(0, 0)), layout, ModeParallel, det, Options{})

	// The other world ran ahead: replica 1 of rank 1 acknowledges a
	// logical send this replica has not posted yet.
	acker := layout.Phys(1, 1)
	p.applyAck(2, 0, acker)
	if p.earlyTotal() != 1 {
		t.Fatalf("early ack not recorded: %d entries", p.earlyTotal())
	}
	// The acker dies before this replica posts the send: without the
	// sweep the record would stay reachable forever.
	p.onFailure(acker)
	if got := p.earlyTotal(); got != 0 {
		t.Errorf("earlyAcks = %d entries after the acker died, want 0", got)
	}
}

func TestEarlyAckDroppedWhenAckerBecomesDirectDestination(t *testing.T) {
	// The alive-acker variant of the leak: the other world runs ahead and
	// Phys(1,1) early-acks a send this replica has not posted; then this
	// replica's own-world peer Phys(1,0) dies, and take-over converts
	// Phys(1,1) into a direct destination. When the send is finally
	// posted it goes out directly — the early-ack record is moot and must
	// be dropped, not orphaned.
	layout := Layout{N: 2, R: 2}
	nw := transport.NewNetwork(layout.Procs(), nil)
	defer nw.Close()
	det := detect.NewService(nw)
	proc := mpi.NewProc(nw, layout.Phys(0, 0))
	p := NewReplicated(proc, layout, ModeParallel, det, Options{})
	world := mpi.NewWorld(proc, p, 2)

	p.applyAck(world.CtxP2P(), 0, layout.Phys(1, 1))
	if p.earlyTotal() != 1 {
		t.Fatalf("early ack not recorded: %d entries", p.earlyTotal())
	}
	p.onFailure(layout.Phys(1, 0)) // my world-1 peer dies; I take over
	if !p.inDests(1, layout.Phys(1, 1)) {
		t.Fatal("take-over did not convert the acker into a direct destination")
	}
	world.Isend(1, 7, []byte{1})
	if got := p.earlyTotal(); got != 0 {
		t.Errorf("earlyAcks = %d entries after the direct send, want 0", got)
	}
}

func TestEarlyAcksPartiallySweptKeepsSurvivors(t *testing.T) {
	// With r=3, only the dead process's record goes; an early ack from a
	// surviving replica must stay consumable.
	layout := Layout{N: 2, R: 3}
	nw := transport.NewNetwork(layout.Procs(), nil)
	defer nw.Close()
	det := detect.NewService(nw)
	p := NewReplicated(mpi.NewProc(nw, layout.Phys(0, 0)), layout, ModeParallel, det, Options{})

	p.applyAck(2, 0, layout.Phys(1, 1))
	p.applyAck(2, 0, layout.Phys(2, 1))
	p.onFailure(layout.Phys(1, 1))
	if p.earlyTotal() != 1 {
		t.Fatalf("earlyAcks = %d entries, want 1 (survivor's record kept)", p.earlyTotal())
	}
	if ea := p.sendSeq.at(2).ret[1].early[0]; ea.seq != 0 || ea.reps != 1<<2 {
		t.Errorf("surviving record wrong: %+v", ea)
	}
}

// TestHashPayloadGolden pins the SDC payload hash to CRC-32C: 0xE3069283
// is the check value every CRC-32C catalogue lists for "123456789". A fixed
// function of the bytes is what lets replicas in different OS processes
// compare hashes.
func TestHashPayloadGolden(t *testing.T) {
	if got := HashPayload([]byte("123456789")); got != 0xe3069283 {
		t.Fatalf("HashPayload(\"123456789\") = %#x, want 0xe3069283", got)
	}
	if HashPayload(nil) != HashPayload([]byte{}) {
		t.Fatal("nil and empty payloads hash differently")
	}
}

func TestSDCHashPairingBothOrders(t *testing.T) {
	// Hash-before-payload and payload-before-hash must both pair up.
	opts := Options{SDC: true}
	protos := miniWorld(t, 2, 2, ModeParallel, opts, func(c *mpi.Comm, p *Replicated) {
		buf := make([]byte, 4)
		for i := 0; i < 10; i++ {
			if c.Rank() == 1 {
				c.Send(0, 0, []byte{byte(i), 2, 3, 4})
			} else {
				c.Recv(1, 0, buf)
			}
		}
		c.Barrier()
		p.Quiesce()
		// The other world may trail this one by a message per destination,
		// and its hashes with it: progress until every reception is paired.
		deadline := time.Now().Add(5 * time.Second)
		for len(p.sdcLocal)+len(p.sdcRemote) > 0 && time.Now().Before(deadline) {
			c.Proc().Engine().Progress()
			runtime.Gosched()
		}
	})
	for id, p := range protos {
		if p.SDCDetected() != 0 {
			t.Errorf("proc %d: false SDC positives: %d", id, p.SDCDetected())
		}
		if len(p.sdcRemote) != 0 || len(p.sdcLocal) != 0 {
			t.Errorf("proc %d: dangling SDC state: remote=%d local=%d",
				id, len(p.sdcRemote), len(p.sdcLocal))
		}
	}
}

func TestRecoveredFrontierAcknowledgesUnpostedSends(t *testing.T) {
	// Rank 1 is unreplicated and message-logged; this process is rank 0's
	// replica 1, which never sends to it directly and expects its ack for
	// every message instead. The other world ran ahead: rank 1 consumed
	// messages 0..4, checkpointed, died and came back from that checkpoint
	// while this replica had posted only message 0. Messages 1..4 are below
	// the relaunch's receive frontier — it will never acknowledge them —
	// so posting them must expect nothing; message 5 is consumed by the new
	// incarnation and waits for its ack as usual.
	layout, err := NewLayout(2, 2, []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	nw := transport.NewNetwork(layout.Procs(), nil)
	defer nw.Close()
	det := detect.NewService(nw)
	proc := mpi.NewProc(nw, layout.Phys(1, 0))
	p := NewReplicated(proc, layout, ModeParallel, det, Options{LogDests: []bool{false, true}})
	world := mpi.NewWorld(proc, p, 2)
	logged := layout.Phys(0, 1)

	world.Isend(1, 7, []byte{0})
	if p.RetainedCount() != 1 {
		t.Fatalf("retained = %d after the first send, want 1", p.RetainedCount())
	}
	p.applyAck(world.CtxP2P(), 2, logged) // an early ack the failure sweeps
	p.onFailure(logged)
	if p.RetainedCount() != 0 || p.earlyTotal() != 0 {
		t.Fatalf("after the failure: retained = %d, early = %d, want 0, 0", p.RetainedCount(), p.earlyTotal())
	}
	p.onRecovered(logged, EncodeSeqRecs(nil, []SeqRec{{Ctx: world.CtxP2P(), Rank: 0, Next: 5}}))
	for seq := 1; seq < 5; seq++ {
		world.Isend(1, 7, []byte{byte(seq)})
		if p.RetainedCount() != 0 {
			t.Fatalf("send #%d, below the relaunch's frontier, waits for an ack", seq)
		}
	}
	if got := p.earlyTotal(); got != 0 {
		t.Errorf("%d early-ack records left once the sends below the frontier are posted", got)
	}
	world.Isend(1, 7, []byte{5})
	if p.RetainedCount() != 1 {
		t.Errorf("retained = %d after send #5, want 1 (the relaunch consumes and acknowledges it)", p.RetainedCount())
	}
}
