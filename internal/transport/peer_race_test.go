package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Regression tests for shutdown/death races on the batched peer wire:
// MarkDead dropping a staged batch while Delivers keep staging, Close
// racing application-goroutine flushes into ring mappings it is about to
// unmap, and frames staged after Close's final flush snapshot.

func TestMarkDeadRacesWithDeliver(t *testing.T) {
	// MarkDead drains the victim's staged batch; the drop must complete
	// under the batch lock, because the taken slice aliases the batch's
	// backing array and a concurrent Deliver may stage into the same
	// slots the moment the lock is free. Run under -race this catches the
	// unlocked-drop variant.
	_, _, pw0, pw1 := twoPeerWorld(t)
	addr := pw1.Addr()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = pw0.Deliver(&Message{Src: 0, Dst: 1, Kind: KindEager, Tag: 1, Data: []byte("x")})
			}
		}()
	}
	for i := 0; i < 200; i++ {
		pw0.MarkDead(1)
		pw0.Revive(1, addr)
	}
	close(stop)
	wg.Wait()

	if n := stagedFrames(pw0); n < 0 {
		t.Fatalf("staged frame count went negative: %d", n)
	}
}

func TestCloseAccountsForLateStagedFrames(t *testing.T) {
	// Frames staged between Close's final flush snapshot and the done
	// signal have no emitter left; Close must drop-and-free them instead
	// of stranding pooled buffers. Every delivered frame must be
	// accounted for — flushed or counted against a drop reason — and the
	// staged gauge must return to zero.
	_, _, pw0, _ := twoPeerWorld(t)

	baseFlushed := mFlushFrames.Value()
	baseClosed := mDroppedClosed.Value()
	baseDead := mDroppedDead.Value()
	baseUnreach := mDroppedUnreachable.Value()
	baseWrite := mDroppedWrite.Value()

	var delivered atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = pw0.Deliver(&Message{Src: 0, Dst: 1, Kind: KindEager, Tag: 2, Data: []byte("y")})
				delivered.Add(1)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	pw0.Close()
	close(stop)
	wg.Wait()

	if n := stagedFrames(pw0); n != 0 {
		t.Fatalf("%d frames still staged after Close", n)
	}
	accounted := int64(mFlushFrames.Value()-baseFlushed) +
		int64(mDroppedClosed.Value()-baseClosed) +
		int64(mDroppedDead.Value()-baseDead) +
		int64(mDroppedUnreachable.Value()-baseUnreach) +
		int64(mDroppedWrite.Value()-baseWrite)
	if accounted != delivered.Load() {
		t.Fatalf("delivered %d frames but only %d accounted (flushed+dropped): the rest are stranded",
			delivered.Load(), accounted)
	}
}

func TestPeerWireCloseRacesRingDeliver(t *testing.T) {
	// Application goroutines flushing into a ring are not tracked by the
	// wire's WaitGroup; Close must fence them out before unmapping the
	// ring files, or an in-flight flush writes to unmapped memory.
	_, _, pw0, _ := ringWorld(t)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = pw0.Deliver(&Message{Src: 0, Dst: 1, Kind: KindEager, Tag: 3, Data: make([]byte, 512)})
				_ = pw0.Flush(NoProc, true)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	pw0.Close()
	close(stop)
	wg.Wait()
}

func TestRingStallBansPair(t *testing.T) {
	// A consumer that stops draining (hung peer not yet declared dead)
	// costs the producer one bounded stall, not one per flush: the first
	// errRingStall permanently bans the pair, so later flushes take the
	// fast TCP/drop path instead of freezing the sender's progress loop
	// for the stall timeout each time.
	if testing.Short() {
		t.Skip("waits out the ring stall timeout")
	}
	_, _, pw0, pw1 := ringWorld(t)
	pw1.Close() // consumer gone: its ring scan loop no longer drains

	// Overfill the pair's ring; the flush stalls once, drops, and bans.
	payload := make([]byte, 64<<10)
	for i := 0; i < 2+DefaultRingBytes/len(payload); i++ {
		_ = pw0.Deliver(&Message{Src: 0, Dst: 1, Kind: KindEager, Tag: 4, Data: payload})
	}
	_ = pw0.Flush(NoProc, true)

	if wireLink(pw0, 0, 1).ring.Load() {
		t.Fatal("ring pair not banned after a stalled push")
	}

	// The next flush must not re-pay the stall timeout.
	start := time.Now()
	_ = pw0.Deliver(&Message{Src: 0, Dst: 1, Kind: KindEager, Tag: 5, Data: []byte("z")})
	_ = pw0.Flush(NoProc, true)
	if elapsed := time.Since(start); elapsed > ringStallTimeout/2 {
		t.Fatalf("post-ban flush took %v; the banned pair should fail fast", elapsed)
	}
}
