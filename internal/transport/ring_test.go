package transport

import (
	"bytes"
	"math/rand"
	"path/filepath"
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
		writeDone <- wr.writeFrame(&Message{Src: 0, Dst: 1, Kind: KindEager, Data: want})
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
	err = w.write(make([]byte, 4096), nil) // no consumer: must give up
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
