package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// ringWorld builds a two-peer world with the colocated ring transport
// armed in both directions (both procs "share a host" — they do, this is
// one test process), rings living under a test-scoped directory.
func ringWorld(t *testing.T) (nw0, nw1 *Network, pw0, pw1 *PeerWire) {
	t.Helper()
	return bellWorld(t, ringBellBackstop, 0)
}

func TestRingPipeRoundTrip(t *testing.T) {
	if !ringSupported() {
		t.Skip("no mmap ring support on this platform")
	}
	path := filepath.Join(t.TempDir(), "ring-0-1")
	w, err := openRing(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	rr, err := newRingReader(path, 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.close()

	wr := &ringWriter{pipe: w}
	want := []byte("through shared memory")
	if err := wr.writeFrame(&Message{Src: 0, Dst: 1, Kind: KindEager, Tag: 3, Data: want}); err != nil {
		t.Fatal(err)
	}
	w.publish()

	var got *Message
	deadline := time.Now().Add(2 * time.Second)
	for got == nil && time.Now().Before(deadline) {
		rr.poll(func(m *Message) { got = m })
	}
	if got == nil {
		t.Fatal("frame never came out of the ring")
	}
	if got.Src != 0 || got.Dst != 1 || got.Tag != 3 || !bytes.Equal(got.Data, want) {
		t.Fatalf("frame corrupted: src=%d dst=%d tag=%d data=%q", got.Src, got.Dst, got.Tag, got.Data)
	}
	FreeMessage(got)
}

func TestRingStreamsFrameLargerThanCapacity(t *testing.T) {
	// A frame bigger than the ring must stream through in chunks as the
	// consumer drains — the producer must not deadlock waiting for space
	// that can only appear once the consumer makes progress.
	if !ringSupported() {
		t.Skip("no mmap ring support on this platform")
	}
	const capBytes = 4096
	path := filepath.Join(t.TempDir(), "ring-0-1")
	w, err := openRing(path, capBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	rr, err := newRingReader(path, capBytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.close()

	want := make([]byte, 10*capBytes)
	rng := rand.New(rand.NewSource(7))
	rng.Read(want)

	wr := &ringWriter{pipe: w}
	writeDone := make(chan error, 1)
	go func() {
		err := wr.writeFrame(&Message{Src: 0, Dst: 1, Kind: KindEager, Data: want})
		w.publish()
		writeDone <- err
	}()

	var got *Message
	deadline := time.Now().Add(5 * time.Second)
	idle := 0
	for got == nil && time.Now().Before(deadline) {
		if !rr.poll(func(m *Message) { got = m }) {
			ringBackoff(&idle)
		}
	}
	if err := <-writeDone; err != nil {
		t.Fatalf("producer failed streaming an oversized frame: %v", err)
	}
	if got == nil {
		t.Fatal("oversized frame never completed")
	}
	if !bytes.Equal(got.Data, want) {
		t.Fatalf("oversized frame corrupted (%d bytes)", len(got.Data))
	}
	FreeMessage(got)
}

func TestRingProducerStallIsBounded(t *testing.T) {
	// A full ring nobody drains must not hang the producer forever: the
	// bounded stall clock converts it into a fail-stop write error, the
	// same contract as the bounded dial budget on the TCP path.
	if testing.Short() {
		t.Skip("waits out the ring stall timeout")
	}
	if !ringSupported() {
		t.Skip("no mmap ring support on this platform")
	}
	path := filepath.Join(t.TempDir(), "ring-0-1")
	w, err := openRing(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()

	start := time.Now()
	err = w.push(make([]byte, 4096), nil) // no consumer: must give up
	if err == nil {
		t.Fatal("write into an undrained full ring succeeded")
	}
	if elapsed := time.Since(start); elapsed > ringStallTimeout+3*time.Second {
		t.Fatalf("stall took %v; bound is ~%v", elapsed, ringStallTimeout)
	}
}

func TestPeerWireRingDelivery(t *testing.T) {
	// End to end through the negotiated ring path: FIFO order, intact
	// payloads, and the ring counters prove the frames actually took the
	// shared-memory path rather than falling back to TCP.
	nw0, nw1, pw0, _ := ringWorld(t)
	ringOut0 := mRingFramesOut.Value()

	const n = 100
	for i := 0; i < n; i++ {
		if err := nw0.Endpoint(0).Send(&Message{Dst: 1, Kind: KindEager, Tag: i, Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw0.Flush(NoProc, true); err != nil {
		t.Fatal(err)
	}

	got := 0
	deadline := time.Now().Add(5 * time.Second)
	for got < n && time.Now().Before(deadline) {
		for _, m := range nw1.Endpoint(1).Drain() {
			if m.Tag != got {
				t.Fatalf("ring broke FIFO: got tag %d, want %d", m.Tag, got)
			}
			if len(m.Data) != 1 || m.Data[0] != byte(got) {
				t.Fatalf("ring frame %d payload corrupted: %v", got, m.Data)
			}
			got++
			FreeMessage(m)
		}
		nw1.Endpoint(1).WaitActivity(5 * time.Millisecond)
	}
	if got != n {
		t.Fatalf("received %d/%d ring frames", got, n)
	}
	if delta := mRingFramesOut.Value() - ringOut0; delta < n {
		t.Fatalf("only %d frames took the ring path, want >= %d", delta, n)
	}
}

func TestPeerWireRingBannedAfterDeath(t *testing.T) {
	// Rings never survive an incarnation change: once the control plane
	// declares the peer dead, the pair is permanently back on TCP — even
	// after Revive — because a producer killed mid-frame leaves a torn
	// stream only a fresh epoch may reuse.
	nw0, nw1, pw0, pw1 := ringWorld(t)

	pw0.MarkDead(1)
	pw0.Revive(1, pw1.Addr())

	ringOut0 := mRingFramesOut.Value()
	if err := nw0.Endpoint(0).Send(&Message{Dst: 1, Kind: KindEager, Tag: 9, Data: []byte("post-revive")}); err != nil {
		t.Fatal(err)
	}
	if err := pw0.Flush(NoProc, true); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, nw1.Endpoint(1), 5*time.Second)
	if m.Tag != 9 || string(m.Data) != "post-revive" {
		t.Fatalf("post-revive frame wrong: tag=%d data=%q", m.Tag, m.Data)
	}
	FreeMessage(m)
	if delta := mRingFramesOut.Value() - ringOut0; delta != 0 {
		t.Fatalf("%d frames took the banned ring path after death", delta)
	}
}

// readPass reads up to len(p) bytes through consumer pipe r the way one poll
// pass does: one tail load, then one head store.
func readPass(r *ringPipe, p []byte) int {
	r.tail = r.hdr.tail.Load()
	n := r.readAvail(p)
	r.hdr.head.Store(r.head)
	return n
}

// ringPair opens both ends of one ring file of the given capacity.
func ringPair(t testing.TB, capBytes int) (*ringPipe, *ringReader) {
	t.Helper()
	if !ringSupported() {
		t.Skip("no mmap ring support on this platform")
	}
	path := filepath.Join(t.TempDir(), "ring-0-1")
	w, err := openRing(path, capBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.close)
	rr, err := newRingReader(path, capBytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rr.close)
	return w, rr
}

func TestRingPublishOncePerBatch(t *testing.T) {
	// A batch is invisible until its one tail store, then visible whole.
	w, rr := ringPair(t, 4096)
	wr := &ringWriter{pipe: w}
	const k = 8
	for i := 0; i < k; i++ {
		if err := wr.writeFrame(&Message{Src: 0, Dst: 1, Kind: KindEager, Tag: i, Data: make([]byte, 64)}); err != nil {
			t.Fatal(err)
		}
	}
	var tags []int
	sink := func(m *Message) { tags = append(tags, m.Tag); FreeMessage(m) }
	if rr.poll(sink) || len(tags) != 0 || w.hdr.tail.Load() != 0 {
		t.Fatalf("consumer saw %d frames (tail %d) before the publish", len(tags), w.hdr.tail.Load())
	}
	w.publish()
	if want := uint64(k * (wireHeaderLen + 64)); w.hdr.tail.Load() != want {
		t.Fatalf("published tail %d, want %d", w.hdr.tail.Load(), want)
	}
	if !rr.poll(sink) {
		t.Fatal("consumer saw nothing after the publish")
	}
	if got := fmt.Sprint(tags); got != "[0 1 2 3 4 5 6 7]" {
		t.Fatalf("frames after the publish %s, want all %d in order", got, k)
	}
	if w.hdr.head.Load() != w.hdr.tail.Load() {
		t.Fatalf("consumer stored head %d, want %d", w.hdr.head.Load(), w.hdr.tail.Load())
	}
}

func TestRingFailedPushPublishesWhatItCopied(t *testing.T) {
	// A push that fails mid-batch (here: the wire shut down while the ring
	// is full) still delivers the frames before the failing one, drops the
	// rest and bans the pair.
	const capBytes = 1024
	w, rr := ringPair(t, capBytes)
	done := make(chan struct{})
	close(done)
	l := &link{wr: &ringWriter{pipe: w, done: done}}
	l.ring.Store(true)
	const total = 20
	frames := make([]*Message, total)
	for i := range frames {
		m := GetMessage(0)
		m.Src, m.Dst, m.Kind, m.Tag, m.Data = 0, 1, KindEager, i, make([]byte, 64)
		frames[i] = m
	}
	fit := capBytes / (wireHeaderLen + 64)
	dropped := mDroppedWrite.Value()
	l.mu.Lock()
	if !(&PeerWire{}).flushRingLocked(0, 1, l, frames) {
		t.Fatal("flush fell back to TCP on an open ring")
	}
	l.mu.Unlock()
	if l.ring.Load() {
		t.Fatal("a failed push left the pair on the ring")
	}
	if got := mDroppedWrite.Value() - dropped; got != total-uint64(fit) {
		t.Fatalf("%d frames dropped, want %d", got, total-fit)
	}
	var tags []int
	rr.poll(func(m *Message) { tags = append(tags, m.Tag); FreeMessage(m) })
	if len(tags) != fit {
		t.Fatalf("consumer got %d frames, want the %d that fit", len(tags), fit)
	}
	for i, tag := range tags {
		if tag != i {
			t.Fatalf("frames out of order: %v", tags)
		}
	}
}

func TestRingRefusesOldHeaderLayout(t *testing.T) {
	// A ring file written in the one-line header layout ("SDRRING1") must
	// fail the header check, not be read with its cursors misplaced.
	if !ringSupported() {
		t.Skip("no mmap ring support on this platform")
	}
	path := filepath.Join(t.TempDir(), "ring-0-1")
	old := make([]byte, 64+4096)
	binary.LittleEndian.PutUint64(old[0:], 0x53445252494e4731)
	binary.LittleEndian.PutUint64(old[8:], 4096)
	if err := os.WriteFile(path, old, 0o600); err != nil {
		t.Fatal(err)
	}
	if r, err := openRing(path, 4096); err == nil {
		r.close()
		t.Fatal("a ring file with the old magic was accepted")
	}
}

func TestPublishWakesParkedScannerForBatch(t *testing.T) {
	// With the backstop a minute away, only a bell can get a batch to a
	// blocked scanner within a second, and a batch is one publish: at most
	// one bell per flush.
	nw0, nw1, pw0, pw1 := bellWorld(t, time.Minute, 0)
	waitScannerParked(t, pw1)
	bells, flushes := mRingBells.Value(), mFlushes.Value()
	start := time.Now()
	const k = 8
	for i := 0; i < k; i++ {
		nw0.Endpoint(0).Send(&Message{Dst: 1, Kind: KindEager, Tag: i, Data: make([]byte, 64)})
	}
	_ = pw0.Flush(0, true)
	for got := 0; got < k; {
		if time.Since(start) > time.Second {
			t.Fatalf("%d of %d frames reached a parked scanner within a second", got, k)
		}
		for _, m := range nw1.Endpoint(1).Drain() {
			if m.Tag != got {
				t.Fatalf("frame %d arrived as %d", got, m.Tag)
			}
			got++
			FreeMessage(m)
		}
		nw1.Endpoint(1).WaitActivity(5 * time.Millisecond)
	}
	b, f := mRingBells.Value()-bells, mFlushes.Value()-flushes
	if b == 0 || b > f {
		t.Fatalf("%d bells for %d flushes, want between 1 and one per flush", b, f)
	}
}

// BenchmarkRingBatch is the ring alone: one producer goroutine pushing
// flushes of 8 × 64 B frames, one consumer goroutine polling them out.
//
//	go test ./internal/transport -run '^$' -bench RingBatch -benchtime 20000x
func BenchmarkRingBatch(b *testing.B) {
	const perFlush = 8
	w, rr := ringPair(b, DefaultRingBytes)
	wr := &ringWriter{pipe: w}
	m := &Message{Src: 0, Dst: 1, Kind: KindEager, Data: make([]byte, 64)}
	want := b.N * perFlush
	got := make(chan int)
	b.ResetTimer()
	go func() {
		n := 0
		sink := func(m *Message) { n++; FreeMessage(m) }
		for n < want {
			if !rr.poll(sink) {
				runtime.Gosched()
			}
		}
		got <- n
	}()
	for i := 0; i < b.N; i++ {
		for j := 0; j < perFlush; j++ {
			if err := wr.writeFrame(m); err != nil {
				b.Fatal(err)
			}
		}
		w.publish()
	}
	<-got
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(want), "ns/frame")
}
