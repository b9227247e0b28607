package mpi

import (
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"repro/internal/transport"
)

// raceEnabled reports whether the test binary was built with -race, whose
// runtime allocates on its own.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// allocsPerRun is testing.AllocsPerRun rounded rather than truncated: it
// counts every goroutine's allocations, and a partner's straddle the
// window's two edges.
func allocsPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return math.Round(float64(after.Mallocs-before.Mallocs) / float64(runs))
}

func TestPointToPointAllocs(t *testing.T) {
	// A Native 64 B eager round trip allocates one PReq per receive, on
	// each side: two in all. Blocking calls keep their Request on the
	// stack, an eager send has no PReq, and envelopes, payload copies and
	// drain batches come from recycled storage.
	if raceEnabled() {
		t.Skip("the race runtime allocates")
	}
	const runs = 1000
	nw := transport.NewNetwork(2, nil)
	defer nw.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		proc := NewProc(nw, 1)
		world := NewWorld(proc, NewNative(proc), 2)
		buf := make([]byte, 64)
		for i := 0; i < runs+1; i++ { // allocsPerRun adds a warm-up run
			world.Recv(0, 0, buf)
			world.Send(0, 1, buf)
		}
	}()
	proc := NewProc(nw, 0)
	world := NewWorld(proc, NewNative(proc), 2)
	buf, rbuf := make([]byte, 64), make([]byte, 64)
	got := allocsPerRun(runs, func() {
		world.Send(1, 0, buf)
		world.Recv(1, 1, rbuf)
	})
	wg.Wait()
	if got != 2 {
		t.Errorf("Native 64 B round trip: %v allocations, want 2", got)
	}
}

// collectiveAllocs runs op on every rank of an n-rank Native world and
// returns the allocations one call costs, all ranks together.
func collectiveAllocs(t *testing.T, n int, op func(c *Comm)) float64 {
	const runs = 500
	var got float64
	runNative(t, n, func(c *Comm) {
		if c.Rank() != 0 {
			for i := 0; i < runs+1; i++ { // allocsPerRun adds a warm-up run
				op(c)
			}
			return
		}
		got = allocsPerRun(runs, func() { op(c) })
	})
	return got
}

func TestSendrecvAllocs(t *testing.T) {
	// A Native 64 B Sendrecv between two ranks allocates the posted
	// receive's PReq on each side and nothing else.
	if raceEnabled() {
		t.Skip("the race runtime allocates")
	}
	sbuf, rbufs := make([]byte, 64), [2][]byte{make([]byte, 64), make([]byte, 64)}
	got := collectiveAllocs(t, 2, func(c *Comm) {
		peer := 1 - c.Rank()
		c.Sendrecv(peer, 0, sbuf, peer, 0, rbufs[c.Rank()])
	})
	if got != 2 {
		t.Errorf("Native Sendrecv: %v allocations, want 2", got)
	}
}

func TestCollectiveAllocs(t *testing.T) {
	// A 4-rank dissemination Barrier posts two receives per rank, and a
	// 4-rank recursive-doubling Allreduce two: their PReqs are the only
	// allocations besides the Allreduce's own accumulator and receive
	// buffer per rank. Every round's requests stay on the stack.
	if raceEnabled() {
		t.Skip("the race runtime allocates")
	}
	if got := collectiveAllocs(t, 4, (*Comm).Barrier); got != 8 {
		t.Errorf("4-rank Barrier: %v allocations, want 8 (2 PReqs per rank)", got)
	}
	got := collectiveAllocs(t, 4, func(c *Comm) { c.AllreduceFloat64(1, OpSum) })
	if got != 16 {
		t.Errorf("4-rank AllreduceFloat64: %v allocations, want 16 (2 PReqs and 2 buffers per rank)", got)
	}
}

func TestEagerIsendHasNoPReq(t *testing.T) {
	// An eager send is complete when Isend returns and builds no PML
	// request; a request composed over none is sent at once. The
	// rendezvous bookkeeping beside it behaves as before: a duplicate RTS
	// is sunk (RebindRTS finds no broken handshake) and completes its
	// sender, and CancelSendsTo cancels only pending rendezvous sends.
	a, b, nw := twoEngines()
	defer nw.Close()
	a.EagerLimit = 8
	proc := &Proc{eng: a}
	world := NewWorld(proc, NewNative(proc), 2)
	if r := NewRequest1(world, true, nil, nil); !r.Done() {
		t.Fatal("a send request over no PML request is not complete")
	}
	if r := NewRequest(world, true, nil, nil); !r.Done() {
		t.Fatal("a send request over no PML requests is not complete")
	}

	if pr := a.Isend(1, 2, 5, []byte("eager"), 0, [4]int64{}); pr != nil {
		t.Fatalf("eager Isend returned a PML request (done %v)", pr.done)
	}
	rdv := a.Isend(1, 2, 6, []byte("rendezvous"), 1, [4]int64{})
	buf := make([]byte, 5)
	r := b.Irecv(0, AnySource, nil, 2, 5, buf)
	for _, m := range nw.Endpoint(1).Drain() {
		if m.Kind != transport.KindRTS {
			b.handle(m)
			continue
		}
		if b.RebindRTS(m) {
			t.Fatal("RebindRTS resumed a handshake that never broke")
		}
		b.SinkRTS(m)
		transport.FreeMessage(m)
	}
	if !r.done || string(buf) != "eager" {
		t.Fatalf("eager receive: done %v, %q", r.done, buf)
	}
	a.Progress()
	if !rdv.done || rdv.cancelled {
		t.Fatalf("sunk rendezvous send: done %v, cancelled %v", rdv.done, rdv.cancelled)
	}

	a.Isend(1, 2, 7, []byte("eager"), 2, [4]int64{})
	rdv = a.Isend(1, 2, 8, []byte("rendezvous"), 3, [4]int64{})
	a.CancelSendsTo(1)
	if !rdv.cancelled || len(a.rdvSend) != 0 {
		t.Fatalf("CancelSendsTo: cancelled %v, %d rendezvous sends pending", rdv.cancelled, len(a.rdvSend))
	}
}

// tailClear reports whether the slots of s past its length hold no pointer.
func tailClear[T any](s []*T) bool {
	return !slices.ContainsFunc(s[len(s):cap(s)], func(p *T) bool { return p != nil })
}

func TestMatchedSlotsHoldNoPointers(t *testing.T) {
	// Removing an entry must clear the slot it vacates at the tail: a
	// stale pointer past len keeps a consumed request — and the user's
	// receive buffer — or a recycled pooled message reachable.
	a, _, nw := twoEngines()
	defer nw.Close()
	send := func(tag int) {
		nw.Endpoint(1).Send(&transport.Message{Dst: 0, Kind: transport.KindEager, Ctx: 2, Tag: tag, Data: []byte{1}})
	}
	check := func(op string) {
		t.Helper()
		if !tailClear(a.posted) || !tailClear(a.unexpected) {
			t.Fatalf("after %s: posted %v, unexpected %v past their lengths", op,
				a.posted[len(a.posted):cap(a.posted)], a.unexpected[len(a.unexpected):cap(a.unexpected)])
		}
	}

	r1 := a.Irecv(1, AnySource, nil, 2, 1, make([]byte, 1))
	a.Irecv(1, AnySource, nil, 2, 2, make([]byte, 1))
	r3 := a.Irecv(1, AnySource, nil, 2, 3, make([]byte, 1))
	send(1)
	a.Progress()
	check("a match of the first posted receive")
	a.Cancel(r3)
	check("Cancel")

	for tag := 4; tag <= 6; tag++ {
		send(tag)
	}
	a.Progress()
	r4 := a.Irecv(1, AnySource, nil, 2, 4, make([]byte, 1))
	check("Irecv from the unexpected queue")
	if !r1.done || !r4.done {
		t.Fatal("a receive did not match")
	}
}
