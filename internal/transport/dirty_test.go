package transport

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// bareWire is the outbound side of process 0 in an n-process world and
// nothing else: no listener, no backstop flusher, no peer addresses. What
// Deliver stages stays staged until the test flushes it, and a flushed batch
// leaves as an "unreachable" drop — counted, which is all the staging
// bookkeeping needs. Never Closed (there is nothing to close). Its backstop
// reads as armed for good, so Deliver never reaches for the absent timer.
func bareWire(n int) *PeerWire {
	nw := NewNetwork(n, nil)
	pw := &PeerWire{nw: nw, lo: 0, hi: 1, srcs: []source{newSource(n)},
		addrs: make([]string, n), done: make(chan struct{})}
	pw.armed.Store(true)
	return pw
}

// checkDirtyExact asserts the staged-link bitmap's invariant: bit dst is set
// exactly when the link to dst holds frames, each link read under its own
// lock, and the frames add up to the source's staged count. It returns the
// number of links holding frames.
func checkDirtyExact(t *testing.T, s *source) (dirty int) {
	t.Helper()
	frames := 0
	for dst := range s.links {
		l := &s.links[dst]
		l.mu.Lock()
		n := len(l.frames)
		bit := s.dirty[dst>>6].Load()>>(dst&63)&1 == 1
		l.mu.Unlock()
		if bit != (n > 0) {
			t.Fatalf("link %d: %d frames staged, dirty bit %v", dst, n, bit)
		}
		frames += n
		if n > 0 {
			dirty++
		}
	}
	if got := s.staged.Load(); got != int64(frames) {
		t.Fatalf("staged count %d, links hold %d frames", got, frames)
	}
	return dirty
}

func TestDirtyLinksFlushWhatIsStaged(t *testing.T) {
	// Frames staged on a random handful of 130 links (three bitmap words,
	// the last one partial): a non-forced Flush emits the aged batches and
	// no others, a forced one everything; a batch that fills flushes inline
	// and MarkDead drops one mid-batch, and neither leaves a bit behind;
	// with nothing staged the bitmap is empty. Every frame leaves exactly
	// once, by the exit the test expects.
	pf, pa := batchMaxFrames, batchMaxAge
	defer func() { batchMaxFrames, batchMaxAge = pf, pa }()
	batchMaxFrames, batchMaxAge = 4, time.Hour

	const n = 130
	pw := bareWire(n)
	s := &pw.srcs[0]
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 300; round++ {
		flushed0, dead0 := mDroppedUnreachable.Value(), mDroppedDead.Value()
		held := map[ProcID]int{} // frames the link should hold
		var flushed, dead uint64
		for k := 1 + rng.Intn(6); k > 0; k-- {
			dst := ProcID(1 + rng.Intn(n-1))
			for c := 1 + rng.Intn(5); c > 0; c-- {
				if err := pw.Deliver(&Message{Src: 0, Dst: dst, Kind: KindEager}); err != nil {
					t.Fatal(err)
				}
				if held[dst]++; held[dst] == batchMaxFrames {
					flushed += uint64(held[dst]) // the batch filled: out it went
					delete(held, dst)
				}
			}
		}
		if got := checkDirtyExact(t, s); got != len(held) {
			t.Fatalf("round %d: %d links hold frames, want %d", round, got, len(held))
		}

		aged := map[ProcID]bool{}
		for dst := range held {
			switch rng.Intn(4) {
			case 0:
				pw.MarkDead(dst)
				pw.Revive(dst, "")
				dead += uint64(held[dst])
				delete(held, dst)
			case 1, 2:
				l := &s.links[dst]
				l.mu.Lock()
				l.since -= int64(2 * batchMaxAge)
				l.mu.Unlock()
				aged[dst] = true
			}
		}
		checkDirtyExact(t, s)

		if err := pw.Flush(0, false); err != nil {
			t.Fatal(err)
		}
		for dst := range aged {
			flushed += uint64(held[dst])
			delete(held, dst)
		}
		if got := checkDirtyExact(t, s); got != len(held) {
			t.Fatalf("round %d: %d links hold frames after a non-forced flush, want the %d young ones", round, got, len(held))
		}

		if err := pw.Flush(NoProc, true); err != nil {
			t.Fatal(err)
		}
		for _, c := range held {
			flushed += uint64(c)
		}
		if got := checkDirtyExact(t, s); got != 0 || s.staged.Load() != 0 {
			t.Fatalf("round %d: %d links, %d frames still staged after a forced flush", round, got, s.staged.Load())
		}
		for w := range s.dirty {
			if word := s.dirty[w].Load(); word != 0 {
				t.Fatalf("round %d: nothing staged but dirty[%d] = %#x", round, w, word)
			}
		}
		if got := mDroppedUnreachable.Value() - flushed0; got != flushed {
			t.Fatalf("round %d: %d frames flushed, want %d", round, got, flushed)
		}
		if got := mDroppedDead.Value() - dead0; got != dead {
			t.Fatalf("round %d: %d frames dropped with their dead peer, want %d", round, got, dead)
		}
	}
}

func TestDirtyLinksUnderConcurrentFlushAndMarkDead(t *testing.T) {
	// The same bookkeeping with everybody at it at once: four goroutines
	// staging, one flushing (forced and not), one killing and reviving
	// peers. Afterwards one forced flush leaves nothing staged and no bit
	// set, and every frame delivered left through exactly one exit.
	const n = 70
	pw := bareWire(n)
	s := &pw.srcs[0]
	flushed0, dead0 := mDroppedUnreachable.Value(), mDroppedDead.Value()

	var stop atomic.Bool
	var delivered atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for !stop.Load() {
				_ = pw.Deliver(&Message{Src: 0, Dst: ProcID(1 + rng.Intn(n-1)), Kind: KindEager})
				delivered.Add(1)
			}
		}(g)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			_ = pw.Flush(0, i%2 == 0)
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for !stop.Load() {
			dst := ProcID(1 + rng.Intn(n-1))
			pw.MarkDead(dst)
			pw.Revive(dst, "")
		}
	}()
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if err := pw.Flush(NoProc, true); err != nil {
		t.Fatal(err)
	}
	if got := checkDirtyExact(t, s); got != 0 || s.staged.Load() != 0 {
		t.Fatalf("%d links, %d frames still staged after the last forced flush", got, s.staged.Load())
	}
	left := (mDroppedUnreachable.Value() - flushed0) + (mDroppedDead.Value() - dead0)
	if left != delivered.Load() {
		t.Fatalf("%d frames delivered, %d accounted for", delivered.Load(), left)
	}
}

// BenchmarkFlushSparse is one pre-block flush of a rank with 128 links of
// which two hold a frame — a halo exchange's neighbours in a 128-rank world.
// The frames leave by the cheapest exit there is (no address: dropped), so
// what is timed is finding them.
//
//	go test ./internal/transport -run '^$' -bench FlushSparse
func BenchmarkFlushSparse(b *testing.B) {
	pw := bareWire(128)
	stage := func(dst ProcID) {
		m := GetMessage(0)
		m.Src, m.Dst, m.Kind = 0, dst, KindEager
		_ = pw.Deliver(m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stage(1)
		stage(127)
		_ = pw.Flush(0, true)
	}
}
