package transport

import (
	"bufio"
	"strings"
	"testing"
	"time"
)

// twoPeerWorld builds two networks — each modelling one worker OS process
// of a 2-proc world — connected by peer wires, with the rendezvous table
// exchanged the way the registry would.
func twoPeerWorld(t testing.TB) (nw0, nw1 *Network, pw0, pw1 *PeerWire) {
	t.Helper()
	nw0 = NewNetwork(2, nil)
	nw1 = NewNetwork(2, nil)
	var err error
	pw0, err = NewPeerWire(nw0, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	pw1, err = NewPeerWire(nw1, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{pw0.Addr(), pw1.Addr()}
	pw0.SetPeers(addrs)
	pw1.SetPeers(addrs)
	t.Cleanup(func() {
		pw0.Close()
		pw1.Close()
		nw0.Close()
		nw1.Close()
	})
	return
}

// recvOne drains ep until a message arrives or the deadline passes.
func recvOne(t *testing.T, ep *Endpoint, within time.Duration) *Message {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if ms := ep.Drain(); len(ms) > 0 {
			return ms[0]
		}
		ep.WaitActivity(5 * time.Millisecond)
	}
	t.Fatal("no message arrived")
	return nil
}

func TestPeerWireCrossProcessDelivery(t *testing.T) {
	nw0, nw1, _, _ := twoPeerWorld(t)

	// proc 0 → proc 1 across the wires: the message must land on network
	// 1's endpoint, not loop back into network 0.
	if err := nw0.Endpoint(0).Send(&Message{Dst: 1, Kind: KindEager, Tag: 7, Data: []byte("over the wire")}); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, nw1.Endpoint(1), 2*time.Second)
	if m.Src != 0 || m.Tag != 7 || string(m.Data) != "over the wire" {
		t.Fatalf("got src=%d tag=%d data=%q", m.Src, m.Tag, m.Data)
	}
	FreeMessage(m)
	if got := nw0.Endpoint(1).Drain(); got != nil {
		t.Fatalf("message leaked into the sender-side dummy endpoint: %v", got)
	}

	// And the reverse direction.
	if err := nw1.Endpoint(1).Send(&Message{Dst: 0, Kind: KindEager, Tag: 9, Data: []byte("back")}); err != nil {
		t.Fatal(err)
	}
	m = recvOne(t, nw0.Endpoint(0), 2*time.Second)
	if m.Src != 1 || m.Tag != 9 {
		t.Fatalf("got src=%d tag=%d", m.Src, m.Tag)
	}
	FreeMessage(m)
}

func TestPeerWireDropsToDeadPeer(t *testing.T) {
	nw0, _, pw0, pw1 := twoPeerWorld(t)

	// Kill peer 1 for real (close its listener) and declare it dead.
	pw1.Close()
	pw0.MarkDead(1)

	// Sends must drop immediately — fail-stop — not hang or error the
	// engine. Deliver returns nil and releases the message.
	done := make(chan error, 1)
	go func() { done <- nw0.Endpoint(0).Send(&Message{Dst: 1, Kind: KindEager}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("send to dead peer must drop silently, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("send to a marked-dead peer blocked")
	}
}

func TestPeerWireBoundedDialToUnreachablePeer(t *testing.T) {
	// An unreachable (but not yet declared dead) peer must stall the
	// sender only for the bounded dial budget, then drop the message.
	nw := NewNetwork(2, nil)
	pw, err := NewPeerWire(nw, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	defer pw.Close()
	defer nw.Close()
	// A port nobody listens on: dials fail fast with ECONNREFUSED.
	pw.SetPeers([]string{"", "127.0.0.1:1"})

	start := time.Now()
	if err := nw.Endpoint(0).Send(&Message{Dst: 1, Kind: KindEager}); err != nil {
		t.Fatalf("unreachable peer must be a silent drop, got %v", err)
	}
	// Budget: DialAttempts dials + backoffs, twice (Deliver's one retry).
	// With connection-refused the dials themselves are immediate; the
	// bound mainly reflects the backoff sleeps.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("drop took %v; dial budget is not bounded", elapsed)
	}
}

func TestPeerWireRejectsMisroutedFrame(t *testing.T) {
	_, nw1, _, pw1 := twoPeerWorld(t)

	// Hand-write a frame addressed to proc 0 onto proc 1's listener: it
	// must be dropped (each listener serves exactly one process) without
	// corrupting the stream for the correctly routed frame behind it.
	c, err := dialRetry(pw1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := bufio.NewWriter(c)
	var pre [8]byte
	if _, err := w.Write(pre[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(encodeToBytes(&Message{Src: 0, Dst: 0, Kind: KindEager, Tag: 5})); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(encodeToBytes(&Message{Src: 0, Dst: 1, Kind: KindEager, Tag: 6})); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	m := recvOne(t, nw1.Endpoint(1), 2*time.Second)
	if m.Tag != 6 {
		t.Fatalf("got tag %d, want the correctly routed frame (6)", m.Tag)
	}
	FreeMessage(m)
	if got := nw1.Endpoint(0).Drain(); got != nil {
		t.Fatal("misrouted frame reached a foreign endpoint queue")
	}
}

func TestDialRetryReportsLastError(t *testing.T) {
	start := time.Now()
	_, err := dialRetry("127.0.0.1:1")
	if err == nil {
		t.Fatal("expected error dialing a closed port")
	}
	if !strings.Contains(err.Error(), "refused") && !strings.Contains(err.Error(), "connect") {
		t.Logf("unexpected error text (platform-dependent): %v", err)
	}
	// 3 refused dials + 25ms + 50ms backoff ≈ well under a second.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dialRetry took %v; retry budget is not bounded", elapsed)
	}
}
