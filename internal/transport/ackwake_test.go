package transport

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitParked spins until a receiver is blocked on ep.
func waitParked(t *testing.T, ep *Endpoint) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ep.Parked() {
		if time.Now().After(deadline) {
			t.Fatal("receiver never parked")
		}
		runtime.Gosched()
	}
}

func TestAckWakeSkipsPlainWaiters(t *testing.T) {
	// A receiver blocked in WaitActivity sleeps through acknowledgements
	// and wakes for the first other message; one blocked in
	// WaitActivityAcks wakes for an ack.
	nw := NewNetwork(2, nil)
	defer nw.Close()
	recv, send := nw.Endpoint(0), nw.Endpoint(1)

	woke := make(chan bool, 1)
	go func() { woke <- recv.WaitActivity(0) }()
	waitParked(t, recv)
	for i := 0; i < 1000; i++ {
		send.Send(&Message{Dst: 0, Kind: KindAck, Seq: uint64(i)})
	}
	if n := recv.Wakeups(); n != 0 {
		t.Fatalf("%d wake-ups for 1000 acks at a plain waiter, want 0", n)
	}
	select {
	case <-woke:
		t.Fatal("plain waiter returned on an ack")
	case <-time.After(20 * time.Millisecond):
	}
	send.Send(&Message{Dst: 0, Kind: KindEager})
	if !<-woke {
		t.Fatal("WaitActivity reported a kill")
	}
	if got := len(recv.Drain()); got != 1001 {
		t.Fatalf("drained %d messages, want the 1000 acks and the eager", got)
	}

	before := recv.Wakeups()
	go func() { woke <- recv.WaitActivityAcks(0) }()
	waitParked(t, recv)
	send.Send(&Message{Dst: 0, Kind: KindAck})
	if !<-woke {
		t.Fatal("WaitActivityAcks reported a kill")
	}
	if recv.Wakeups() == before {
		t.Fatal("ack did not wake an ack-interested waiter")
	}
}

func TestAckWakeNeverStrandsAppMessage(t *testing.T) {
	// Acks do not wake a plain waiter, so the wake-up of an application
	// message must never be lost to the ack traffic around it. It was
	// when injectAt counted a message after releasing the shard lock:
	// Drain could remove an ack before it was counted, the receiver
	// parked on a negative count, the eager's wake-up found the count at
	// zero and parked again, and the late count woke nobody. Two ack
	// sources race one eager sender against a receiver alternating Drain
	// and WaitActivity; the receiver must see every eager.
	const rounds = 3000
	nw := NewNetwork(4, nil)
	defer nw.Close()
	recv := nw.Endpoint(0)

	var seen atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for _, m := range recv.Drain() {
				if m.Kind == KindEager {
					seen.Add(1)
				}
				FreeMessage(m)
			}
			if stop.Load() {
				return
			}
			if !recv.WaitActivity(0) {
				return
			}
		}
	}()
	for src := 2; src <= 3; src++ {
		wg.Add(1)
		go func(ep *Endpoint) {
			defer wg.Done()
			for !stop.Load() {
				for i := 0; i < 8; i++ {
					ep.Send(&Message{Dst: 0, Kind: KindAck})
				}
				runtime.Gosched()
			}
		}(nw.Endpoint(ProcID(src)))
	}

	sender := nw.Endpoint(1)
	for i := int64(1); i <= rounds; i++ {
		sender.Send(&Message{Dst: 0, Kind: KindEager})
		deadline := time.Now().Add(5 * time.Second)
		for seen.Load() < i {
			if time.Now().After(deadline) {
				stop.Store(true)
				nw.Kill(0)
				wg.Wait()
				t.Fatalf("round %d: receiver asleep with an application message queued", i)
			}
			runtime.Gosched()
		}
	}
	stop.Store(true)
	sender.Send(&Message{Dst: 0, Kind: KindEager}) // wake the receiver to see stop
	wg.Wait()
}
