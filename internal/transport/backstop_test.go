package transport

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitCounter polls v until it reads at least want, failing the test at
// the deadline.
func waitCounter(t *testing.T, name string, v func() uint64, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for v() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d or more", name, v(), want)
		}
		time.Sleep(flushTick / 5)
	}
}

func TestBackstopShipsUnflushedFrame(t *testing.T) {
	// One Send and no Flush: the frame stays staged, so Deliver arms the
	// backstop, and its one fire ships the frame. With nothing staged the
	// timer stays stopped: 20 ms of silence (40 × flushTick) brings no fire.
	onEachTopology(t, 2, func(t *testing.T, w *wireWorld) {
		fires, frames := mBackstopFires.Value(), mBackstopFrames.Value()
		if err := w.ep(0).Send(&Message{Dst: 1, Kind: KindEager, Tag: 7}); err != nil {
			t.Fatal(err)
		}
		if got := recvN(t, w.ep(1), 1); got[0].Tag != 7 {
			t.Fatalf("received tag %d, want 7", got[0].Tag)
		}
		waitCounter(t, "backstop fires", mBackstopFires.Value, fires+1)
		waitCounter(t, "backstop frames", mBackstopFrames.Value, frames+1)
		time.Sleep(40 * flushTick)
		if got := mBackstopFires.Value(); got != fires+1 {
			t.Fatalf("an idle wire fired its backstop %d more times", got-fires-1)
		}
		if armed := w.pws[0].armed.Load(); armed {
			t.Fatal("an idle wire's backstop is still armed")
		}
	})
}

// backstopSettles reports whether pw reaches "nothing staged, or the
// backstop armed" within a second. The caller keeps every Deliver out, so
// only a fire in progress can still move the state: it empties the links.
// A frame staged with no timer running for it never settles.
func backstopSettles(pw *PeerWire) bool {
	deadline := time.Now().Add(time.Second)
	for stagedFrames(pw) != 0 && !pw.armed.Load() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Microsecond)
	}
	return true
}

func TestBackstopConcurrentStagers(t *testing.T) {
	// Four hosted sources stage 500 frames each toward two destinations on
	// one loopback wire, yielding at random, and nobody calls Flush: the
	// full batches go out inline and the backstop ships every tail. After
	// each fire, with no Deliver in flight, a staged frame must have a
	// timer running for it — the invariant a fire that cleared armed after
	// its flush breaks, by stranding a frame staged behind the flush.
	const srcs, dsts, per = 4, 2, 500
	nw, pw, err := NewTCPNetwork(srcs + dsts)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	defer pw.Close()

	var gate sync.RWMutex // a stager holds it shared across each Send; the checker excludes them
	stop, checks := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		defer func() { checks <- n }()
		last := mBackstopFires.Value()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if f := mBackstopFires.Value(); f != last {
				last = f
				gate.Lock()
				ok := backstopSettles(pw)
				gate.Unlock()
				if !ok {
					t.Errorf("after fire %d: %d frames staged and the backstop not armed", f, stagedFrames(pw))
					return
				}
				n++
			}
			time.Sleep(flushTick / 10)
		}
	}()

	var sent [srcs][dsts]int
	var wg sync.WaitGroup
	for s := range srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			ep := nw.Endpoint(ProcID(s))
			for range per {
				d := rng.Intn(dsts)
				gate.RLock()
				err := ep.Send(&Message{Dst: ProcID(srcs + d), Kind: KindEager, Tag: sent[s][d]})
				gate.RUnlock()
				if err != nil {
					t.Error(err)
					return
				}
				sent[s][d]++
				switch rng.Intn(32) {
				case 0: // go quiet long enough for fires to land mid-run
					time.Sleep(time.Duration(rng.Int63n(int64(flushTick))))
				case 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15:
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()

	for d := range dsts {
		want := 0
		for s := range srcs {
			want += sent[s][d]
		}
		next := make([]int, srcs)
		for _, m := range recvN(t, nw.Endpoint(ProcID(srcs+d)), want) {
			if m.Tag != next[m.Src] {
				t.Fatalf("%d→%d: frame %d arrived where %d was due", m.Src, srcs+d, m.Tag, next[m.Src])
			}
			next[m.Src]++
			FreeMessage(m)
		}
	}
	close(stop)
	if n := <-checks; n == 0 && !t.Failed() {
		t.Fatal("the backstop never fired: nothing checked the invariant")
	} else {
		t.Logf("invariant checked after %d fires", n)
	}
	if n := stagedFrames(pw); n != 0 {
		t.Fatalf("%d frames still staged after every frame arrived", n)
	}
}

func TestBackstopFireClearsBeforeFlush(t *testing.T) {
	// The fire's two steps with a Deliver between them, made deterministic
	// by holding a link lock the fire's flush needs. Frames A (0→1) and B
	// (0→2) are staged; the fire ships A and blocks on B's link, which the
	// test holds. C (0→1) is staged right then. A fire that cleared armed
	// first lets C's Deliver arm the timer again; one that clears it after
	// its flush has C's Deliver see armed still set and then clears it,
	// leaving C staged with no timer running.
	nw, pw, err := NewTCPNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	defer pw.Close()
	ep := nw.Endpoint(0)
	send := func(dst ProcID, tag int) {
		t.Helper()
		if err := ep.Send(&Message{Dst: dst, Kind: KindEager, Tag: tag}); err != nil {
			t.Fatal(err)
		}
	}
	l02 := wireLink(pw, 0, 2)
	for {
		send(2, 0) // B, which arms the timer
		l02.mu.Lock()
		if len(l02.frames) == 1 {
			break
		}
		l02.mu.Unlock() // the fire beat the lock: B is out, stage it again
		recvN(t, nw.Endpoint(2), 1)
	}
	fires := mBackstopFires.Value()
	send(1, 0) // A
	dirty := &pw.srcs[0].dirty[0]
	deadline := time.Now().Add(5 * time.Second)
	for dirty.Load()&(1<<1) != 0 { // the fire has taken A and waits for B's link
		if time.Now().After(deadline) {
			l02.mu.Unlock()
			t.Fatal("the backstop never took frame A")
		}
		time.Sleep(10 * time.Microsecond)
	}
	send(1, 1) // C
	l02.mu.Unlock()
	waitCounter(t, "backstop fires", mBackstopFires.Value, fires+1)
	if !backstopSettles(pw) {
		t.Fatalf("%d frames staged after the fire and the backstop not armed", stagedFrames(pw))
	}
	if got := recvN(t, nw.Endpoint(1), 2); got[0].Tag != 0 || got[1].Tag != 1 {
		t.Fatalf("0→1 delivered tags %d, %d, want 0, 1", got[0].Tag, got[1].Tag)
	}
}
