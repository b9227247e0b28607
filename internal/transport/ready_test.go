package transport

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// checkReadyExact asserts the ready mask's invariant with the endpoint
// quiescent: bit i is set exactly when shard i holds something, each shard
// read under its own lock.
func checkReadyExact(t *testing.T, ep *Endpoint) {
	t.Helper()
	var want uint64
	for i := range ep.shards {
		sh := &ep.shards[i]
		sh.mu.Lock()
		if len(sh.q) > 0 {
			want |= 1 << i
		}
		sh.mu.Unlock()
	}
	if got := ep.ready.Load(); got != want {
		t.Fatalf("ready mask %#x, non-empty shards %#x", got, want)
	}
}

func TestReadyMaskExactUnderRandomTraffic(t *testing.T) {
	// Many injectors, one owner that drains, and a control plane that kills
	// and revives the owner's endpoint under them. While the endpoint lives
	// every message is handed out exactly once and in its source's order; a
	// kill/revive cycle may cut one hole per source (in-flight traffic
	// cleared, traffic to the dead process dropped) and nothing else. At
	// quiescence the mask names exactly the non-empty shards — a bit left
	// up over an empty shard would spin the waiter at the end, which must
	// park instead.
	const senders = 20
	for _, tc := range []struct {
		name    string
		procs   int
		senders int
		delay   *DelayModel
	}{
		{"direct", senders + 1, senders, nil},
		{"wrapped-shards", 71, 70, nil},
		{"delay-model", senders + 1, senders, &DelayModel{Latency: 30 * time.Microsecond, SendOverhead: time.Microsecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw := NewNetwork(tc.procs, tc.delay)
			defer nw.Close()
			dst := ProcID(tc.procs - 1)
			recv := nw.Endpoint(dst)

			var stop, stopChurn atomic.Bool
			var kills atomic.Int64 // kill/revive cycles begun
			sent := make([]atomic.Uint64, tc.senders)
			var wg sync.WaitGroup
			churned := make(chan struct{})
			for s := 0; s < tc.senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					ep := nw.Endpoint(ProcID(s))
					rng := rand.New(rand.NewSource(int64(s)))
					for seq := uint64(1); !stop.Load(); seq++ {
						kind := KindEager
						if rng.Intn(3) == 0 {
							kind = KindAck
						}
						ep.Send(&Message{Dst: dst, Kind: kind, Seq: seq})
						sent[s].Store(seq)
						if rng.Intn(16) == 0 {
							time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
						}
					}
				}(s)
			}
			go func() {
				defer close(churned)
				rng := rand.New(rand.NewSource(99))
				for !stopChurn.Load() {
					time.Sleep(time.Duration(1+rng.Intn(3)) * time.Millisecond)
					kills.Add(1)
					nw.Kill(dst)
					time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
					nw.Revive(dst)
				}
			}()

			last := make([]uint64, tc.senders)
			holes := make([]int64, tc.senders)
			take := func() {
				for _, m := range recv.Drain() {
					s := int(m.Src)
					switch {
					case m.Seq <= last[s]:
						t.Errorf("source %d: seq %d handed out after %d (duplicate or reordered)", s, m.Seq, last[s])
					case m.Seq != last[s]+1:
						if holes[s]++; holes[s] > kills.Load() {
							t.Errorf("source %d: seq %d follows %d with no kill to explain the hole", s, m.Seq, last[s])
						}
					}
					last[s] = m.Seq
					FreeMessage(m)
				}
			}
			for end := time.Now().Add(150 * time.Millisecond); time.Now().Before(end) && !t.Failed(); {
				take()
				recv.WaitActivity(200 * time.Microsecond)
			}
			// The churn's last act is a Revive; two sends later every source
			// has a message that set out for a live endpoint, and its last
			// one must then be the last one drained.
			stopChurn.Store(true)
			<-churned
			mark := make([]uint64, tc.senders)
			for s := range mark {
				mark[s] = sent[s].Load()
			}
			for s := range mark {
				for sent[s].Load() < mark[s]+2 {
					take()
				}
			}
			stop.Store(true)
			wg.Wait()
			checkReadyExact(t, recv)
			for end := time.Now().Add(5 * time.Second); recv.ready.Load() != 0 && time.Now().Before(end); {
				take()
			}
			checkReadyExact(t, recv)
			if mask := recv.ready.Load(); mask != 0 {
				t.Fatalf("ready mask %#x after the last message was drained", mask)
			}
			for s := range last {
				if want := sent[s].Load(); last[s] != want {
					t.Errorf("source %d: drained up to seq %d, sent up to %d to a live endpoint", s, last[s], want)
				}
			}

			woke := make(chan bool, 1)
			go func() { woke <- recv.WaitActivity(0) }()
			waitParked(t, recv)
			before := recv.Wakeups()
			time.Sleep(5 * time.Millisecond)
			if !recv.Parked() || recv.Wakeups() != before {
				t.Fatal("waiter over an empty queue did not stay parked")
			}
			nw.Endpoint(0).Send(&Message{Dst: dst, Kind: KindEager})
			select {
			case alive := <-woke:
				if !alive {
					t.Fatal("WaitActivity reported a kill")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("parked waiter slept through an arrival")
			}
		})
	}
}

func TestTimedWaitWakesOnArrival(t *testing.T) {
	// A timed wait parks on the endpoint's condition like an untimed one:
	// the arrival ends it, at once and with one wake-up, not the deadline
	// and not a polling loop beside the condition.
	nw := NewNetwork(2, nil)
	defer nw.Close()
	recv := nw.Endpoint(0)

	done := make(chan time.Time, 1)
	go func() {
		recv.WaitActivity(time.Second)
		done <- time.Now()
	}()
	waitParked(t, recv)
	time.Sleep(2 * time.Millisecond) // several of the old 100 µs polls
	if n := recv.Wakeups(); n != 0 {
		t.Fatalf("%d wake-ups before anything arrived, want 0", n)
	}
	sentAt := time.Now()
	nw.Endpoint(1).Send(&Message{Dst: 0, Kind: KindEager})
	select {
	case at := <-done:
		if late := at.Sub(sentAt); late > 50*time.Millisecond {
			t.Fatalf("timed waiter returned %v after the arrival", late)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed waiter slept through the arrival")
	}
	if n := recv.Wakeups(); n != 1 {
		t.Fatalf("%d wake-ups for one arrival, want 1", n)
	}
}

func TestTimedWaitReturnsAtDeadline(t *testing.T) {
	nw := NewNetwork(2, nil)
	defer nw.Close()
	recv := nw.Endpoint(0)
	for _, d := range []time.Duration{20 * time.Millisecond, 5 * time.Millisecond} {
		start := time.Now()
		if !recv.WaitActivity(d) {
			t.Fatal("WaitActivity reported a kill")
		}
		if got := time.Since(start); got < d || got > d+500*time.Millisecond {
			t.Fatalf("wait of %v with no traffic returned after %v", d, got)
		}
	}
	if n := recv.Wakeups(); n != 2 {
		t.Fatalf("%d wake-ups for two expired waits, want 2", n)
	}
	// The timer of an expired wait does not cut a later, untimed one short.
	woke := make(chan bool, 1)
	go func() { woke <- recv.WaitActivity(0) }()
	waitParked(t, recv)
	select {
	case <-woke:
		t.Fatal("untimed wait ended with no arrival")
	case <-time.After(30 * time.Millisecond):
	}
	nw.Kill(0)
	if <-woke {
		t.Fatal("WaitActivity survived a kill")
	}
}

// BenchmarkDrainSparse is the receive path of one message in a world wide
// enough for the full 64 shards with a single live source: what a rank of a
// large job pays to find the one shard that holds something.
//
//	go test ./internal/transport -run '^$' -bench DrainSparse
func BenchmarkDrainSparse(b *testing.B) {
	nw := NewNetwork(64, nil)
	defer nw.Close()
	src, dst := nw.Endpoint(5), nw.Endpoint(0)
	if len(dst.shards) != maxQueueShards {
		b.Fatalf("%d shards, want %d", len(dst.shards), maxQueueShards)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Send(&Message{Dst: 0, Kind: KindEager})
		for _, m := range dst.Drain() {
			FreeMessage(m)
		}
		dst.Drain() // and the empty call that follows every full one
	}
}
