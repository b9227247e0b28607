package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSendDeliverBasic(t *testing.T) {
	nw := NewNetwork(2, nil)
	defer nw.Close()
	a, b := nw.Endpoint(0), nw.Endpoint(1)
	err := a.Send(&Message{Dst: 1, Kind: KindEager, Tag: 7, Data: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	msgs := b.Drain()
	if len(msgs) != 1 {
		t.Fatalf("got %d messages, want 1", len(msgs))
	}
	m := msgs[0]
	if m.Src != 0 || m.Dst != 1 || m.Tag != 7 || string(m.Data) != "hello" {
		t.Fatalf("bad message: %+v", m)
	}
}

func TestSendInvalidDest(t *testing.T) {
	nw := NewNetwork(2, nil)
	defer nw.Close()
	if err := nw.Endpoint(0).Send(&Message{Dst: 5}); err == nil {
		t.Fatal("expected error for invalid destination")
	}
	if err := nw.Endpoint(0).Send(&Message{Dst: -1}); err == nil {
		t.Fatal("expected error for negative destination")
	}
}

func TestFIFOPerPair(t *testing.T) {
	nw := NewNetwork(3, nil)
	defer nw.Close()
	const n = 500
	var wg sync.WaitGroup
	for src := 0; src < 2; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			ep := nw.Endpoint(ProcID(src))
			for i := 0; i < n; i++ {
				ep.Send(&Message{Dst: 2, Kind: KindEager, Seq: uint64(i)})
			}
		}(src)
	}
	wg.Wait()
	recv := nw.Endpoint(2)
	next := map[ProcID]uint64{}
	total := 0
	for total < 2*n {
		if !recv.WaitActivity(time.Second) {
			t.Fatal("receiver killed unexpectedly")
		}
		for _, m := range recv.Drain() {
			if m.Seq != next[m.Src] {
				t.Fatalf("out of order from %d: got seq %d want %d", m.Src, m.Seq, next[m.Src])
			}
			if m.TransportSeq() != next[m.Src] {
				t.Fatalf("transport seq mismatch: %d vs %d", m.TransportSeq(), next[m.Src])
			}
			next[m.Src]++
			total++
		}
	}
}

func TestKillDropsNewTraffic(t *testing.T) {
	nw := NewNetwork(2, nil)
	defer nw.Close()
	a, b := nw.Endpoint(0), nw.Endpoint(1)

	// In-flight before the kill stays deliverable.
	a.Send(&Message{Dst: 1, Kind: KindEager, Seq: 1})
	nw.Kill(1)
	if nw.Alive(1) {
		t.Fatal("proc 1 should be dead")
	}
	if !b.Crashed() {
		t.Fatal("endpoint should observe its own crash")
	}
	// Messages sent after the kill are dropped: queue was cleared by the
	// kill-path? No: kill keeps the queue but drops *new* injections.
	a.Send(&Message{Dst: 1, Kind: KindEager, Seq: 2})
	got := b.Drain()
	for _, m := range got {
		if m.Seq == 2 {
			t.Fatal("message sent after kill must be dropped")
		}
	}
}

func TestWaitActivityWakesOnKill(t *testing.T) {
	nw := NewNetwork(1, nil)
	defer nw.Close()
	done := make(chan bool, 1)
	go func() {
		done <- nw.Endpoint(0).WaitActivity(0)
	}()
	time.Sleep(10 * time.Millisecond)
	nw.Kill(0)
	select {
	case alive := <-done:
		if alive {
			t.Fatal("WaitActivity should report kill with false")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitActivity did not wake on kill")
	}
}

func TestWaitActivityTimeout(t *testing.T) {
	nw := NewNetwork(1, nil)
	defer nw.Close()
	start := time.Now()
	nw.Endpoint(0).WaitActivity(20 * time.Millisecond)
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("returned too early: %v", elapsed)
	}
}

func TestReviveClearsQueue(t *testing.T) {
	nw := NewNetwork(2, nil)
	defer nw.Close()
	a, b := nw.Endpoint(0), nw.Endpoint(1)
	a.Send(&Message{Dst: 1, Kind: KindEager, Seq: 9})
	nw.Kill(1)
	nw.Revive(1)
	if !nw.Alive(1) {
		t.Fatal("proc 1 should be alive after revive")
	}
	if b.Crashed() {
		t.Fatal("revived endpoint should not report crashed")
	}
	if msgs := b.Drain(); len(msgs) != 0 {
		t.Fatalf("revived endpoint should start with empty queue, got %d", len(msgs))
	}
	a.Send(&Message{Dst: 1, Kind: KindEager, Seq: 10})
	msgs := b.Drain()
	if len(msgs) != 1 || msgs[0].Seq != 10 {
		t.Fatalf("revived endpoint should receive new traffic, got %v", msgs)
	}
}

func TestMonitorNotifications(t *testing.T) {
	nw := NewNetwork(2, nil)
	defer nw.Close()
	var mu sync.Mutex
	var events []string
	nw.Monitor(func(p ProcID, alive bool) {
		mu.Lock()
		events = append(events, fmt.Sprintf("%d:%v", p, alive))
		mu.Unlock()
	})
	nw.Kill(1)
	nw.Revive(1)
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 || events[0] != "1:false" || events[1] != "1:true" {
		t.Fatalf("unexpected monitor events: %v", events)
	}
}

func TestStatsCounting(t *testing.T) {
	nw := NewNetwork(2, nil)
	defer nw.Close()
	a := nw.Endpoint(0)
	a.Send(&Message{Dst: 1, Kind: KindEager, Data: make([]byte, 100)})
	a.Send(&Message{Dst: 1, Kind: KindAck})
	a.Send(&Message{Dst: 1, Kind: KindCtl})
	s := nw.Stats().Snapshot()
	if s.AppMsgs() != 1 {
		t.Fatalf("AppMsgs = %d, want 1", s.AppMsgs())
	}
	if s.AckMsgs() != 1 {
		t.Fatalf("AckMsgs = %d, want 1", s.AckMsgs())
	}
	if s.TotalMsgs() != 3 {
		t.Fatalf("TotalMsgs = %d, want 3", s.TotalMsgs())
	}
	if s.Bytes[KindEager] != 100 {
		t.Fatalf("eager bytes = %d, want 100", s.Bytes[KindEager])
	}
}

func TestSenderStatsTotals(t *testing.T) {
	// Per-kind totals over sends from several endpoints, two Injects and
	// two sends to a killed destination — which count, as they did when
	// the network kept one shared block. The figures were read off that
	// shared block for this exact sequence.
	nw := NewNetwork(4, nil)
	defer nw.Close()
	for i := 0; i < 3; i++ {
		ep := nw.Endpoint(ProcID(i))
		for k := 0; k < 5+i; k++ {
			ep.Send(&Message{Dst: ProcID((i + 1) % 3), Kind: KindEager, Data: make([]byte, 10*k+i)})
		}
		ep.Send(&Message{Dst: ProcID((i + 2) % 3), Kind: KindAck})
		ep.Send(&Message{Dst: ProcID((i + 2) % 3), Kind: KindRTS, Data: make([]byte, 3)})
	}
	nw.Inject(1, &Message{Kind: KindCtl, Data: make([]byte, 17)})
	nw.Inject(2, &Message{Kind: KindEager, Data: make([]byte, 5)})
	nw.Kill(3)
	nw.Endpoint(0).Send(&Message{Dst: 3, Kind: KindEager, Data: make([]byte, 100)})
	nw.Endpoint(1).Send(&Message{Dst: 3, Kind: KindData, Data: make([]byte, 1000)})

	want := StatsSnapshot{
		Msgs:  [8]uint64{20, 3, 0, 1, 3, 0, 1, 0},
		Bytes: [8]uint64{585, 9, 0, 1000, 0, 0, 17, 0},
	}
	s := nw.Stats().Snapshot()
	if s != want {
		t.Fatalf("Snapshot = %+v\nwant       %+v", s, want)
	}
	if s.AppMsgs() != 21 || s.AckMsgs() != 3 || s.TotalMsgs() != 28 {
		t.Fatalf("app/ack/total = %d/%d/%d, want 21/3/28", s.AppMsgs(), s.AckMsgs(), s.TotalMsgs())
	}
	if n := testing.AllocsPerRun(10, func() { nw.Stats().Snapshot() }); n != 0 {
		t.Fatalf("Snapshot allocates %v times", n)
	}
	// An endpoint the network does not host has no sender block: it
	// refuses to send, and counts nothing.
	pn, pw, err := NewPeerNetwork(4, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer pn.Close()
	defer pw.Close()
	if err := pn.Endpoint(2).Send(&Message{Dst: 1, Kind: KindEager}); err == nil {
		t.Fatal("send from an unhosted endpoint succeeded")
	}
	if got := pn.Stats().Snapshot(); got != (StatsSnapshot{}) {
		t.Fatalf("refused send counted: %+v", got)
	}
}

func TestDelayModelLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	d := &DelayModel{Latency: 2 * time.Millisecond}
	nw := NewNetwork(2, d)
	defer nw.Close()
	a, b := nw.Endpoint(0), nw.Endpoint(1)
	start := time.Now()
	a.Send(&Message{Dst: 1, Kind: KindEager})
	if !b.WaitActivity(time.Second) {
		t.Fatal("killed")
	}
	msgs := b.Drain()
	elapsed := time.Since(start)
	if len(msgs) != 1 {
		t.Fatalf("got %d messages", len(msgs))
	}
	if elapsed < 2*time.Millisecond {
		t.Fatalf("message arrived before latency elapsed: %v", elapsed)
	}
}

func TestDelayModelBandwidth(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	// 1 MB at 100 MB/s = 10 ms of serialization.
	d := &DelayModel{BytesPerSec: 100e6}
	nw := NewNetwork(2, d)
	defer nw.Close()
	a, b := nw.Endpoint(0), nw.Endpoint(1)
	start := time.Now()
	a.Send(&Message{Dst: 1, Kind: KindEager, Data: make([]byte, 1<<20)})
	if !b.WaitActivity(time.Second) {
		t.Fatal("killed")
	}
	b.Drain()
	if elapsed := time.Since(start); elapsed < 8*time.Millisecond {
		t.Fatalf("1MB at 100MB/s arrived too fast: %v", elapsed)
	}
}

func TestDelayModelTransferTime(t *testing.T) {
	var d *DelayModel
	if d.transferTime(100) != 0 {
		t.Fatal("nil model should have zero transfer time")
	}
	d = &DelayModel{BytesPerSec: 1e6}
	if got := d.transferTime(1e6); got < 990*time.Millisecond || got > 1010*time.Millisecond {
		t.Fatalf("transferTime = %v, want ~1s", got)
	}
	if d.transferTime(0) != 0 {
		t.Fatal("zero bytes should cost zero")
	}
}

func TestIB20GShape(t *testing.T) {
	d := IB20G()
	if d.Latency <= 0 || d.BytesPerSec <= 0 || d.SendOverhead <= 0 {
		t.Fatal("IB20G model must have positive parameters")
	}
	// One-byte one-way cost should be in the low microseconds, like the
	// paper's 1.67us native half-round-trip.
	oneByte := d.Latency + d.SendOverhead + d.transferTime(1)
	if oneByte < 1*time.Microsecond || oneByte > 3*time.Microsecond {
		t.Fatalf("one-byte one-way cost %v out of IB-20G range", oneByte)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	m := &Message{
		Src: 3, Dst: 1, Kind: KindData, Ctx: 42, Tag: -17,
		Seq: 999, XID: 12345, Meta: [4]int64{1, -2, 3, -4},
		Data: []byte("payload bytes"),
		tseq: 77,
	}
	got, err := decodeOne(encodeToBytes(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !messagesEqual(m, got) {
		t.Fatalf("roundtrip mismatch:\n in: %+v\nout: %+v", m, got)
	}
	FreeMessage(got)
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(src, dst int32, kind uint8, ctx uint32, tag int64, seq, xid uint64, meta [4]int64, data []byte) bool {
		m := &Message{
			Src: ProcID(src), Dst: ProcID(dst), Kind: Kind(kind % 7),
			Ctx: ctx, Tag: int(tag), Seq: seq, XID: xid, Meta: meta,
			Data: data, tseq: seq ^ xid,
		}
		got, err := decodeOne(encodeToBytes(m), nil)
		if err != nil {
			return false
		}
		defer FreeMessage(got)
		return messagesEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRejectsOversizedPayload(t *testing.T) {
	raw := encodeToBytes(&Message{Dst: 1, Data: []byte("x")})
	// Corrupt the length field (offset 80) to an enormous value.
	raw[80], raw[81], raw[82], raw[83] = 0xff, 0xff, 0xff, 0xff
	if _, err := decodeOne(raw, nil); err == nil {
		t.Fatal("expected error for oversized payload")
	}
}

func TestDrainPreservesOrderWithMixedDelays(t *testing.T) {
	nw := NewNetwork(2, &DelayModel{Latency: time.Millisecond})
	defer nw.Close()
	a, b := nw.Endpoint(0), nw.Endpoint(1)
	for i := 0; i < 10; i++ {
		a.Send(&Message{Dst: 1, Kind: KindEager, Seq: uint64(i)})
	}
	var got []uint64
	deadline := time.Now().Add(2 * time.Second)
	for len(got) < 10 && time.Now().Before(deadline) {
		b.WaitActivity(50 * time.Millisecond)
		for _, m := range b.Drain() {
			got = append(got, m.Seq)
		}
	}
	if len(got) != 10 {
		t.Fatalf("got %d messages", len(got))
	}
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("delayed drain reordered: %v", got)
		}
	}
}

func TestSendEnvelopeReuse(t *testing.T) {
	// A sender may reuse the same Message struct for consecutive sends;
	// the transport must have copied the envelope.
	nw := NewNetwork(2, nil)
	defer nw.Close()
	a, b := nw.Endpoint(0), nw.Endpoint(1)
	m := &Message{Dst: 1, Kind: KindEager}
	for i := 0; i < 5; i++ {
		m.Seq = uint64(i)
		m.Data = []byte{byte(i)}
		a.Send(m)
	}
	msgs := b.Drain()
	if len(msgs) != 5 {
		t.Fatalf("got %d", len(msgs))
	}
	for i, got := range msgs {
		if got.Seq != uint64(i) || got.Data[0] != byte(i) {
			t.Fatalf("envelope aliasing detected at %d: %+v", i, got)
		}
	}
}

func TestRandomTrafficNoLossNoDup(t *testing.T) {
	nw := NewNetwork(5, nil)
	defer nw.Close()
	rng := rand.New(rand.NewSource(42))
	counts := make([][]int, 5)
	for i := range counts {
		counts[i] = make([]int, 5)
	}
	const total = 2000
	for i := 0; i < total; i++ {
		src := rng.Intn(5)
		dst := rng.Intn(5)
		if dst == src {
			dst = (dst + 1) % 5
		}
		nw.Endpoint(ProcID(src)).Send(&Message{Dst: ProcID(dst), Kind: KindEager, Seq: uint64(counts[src][dst])})
		counts[src][dst]++
	}
	for dst := 0; dst < 5; dst++ {
		next := map[ProcID]uint64{}
		for _, m := range nw.Endpoint(ProcID(dst)).Drain() {
			if m.Seq != next[m.Src] {
				t.Fatalf("loss/dup/reorder %d->%d: seq %d want %d", m.Src, dst, m.Seq, next[m.Src])
			}
			next[m.Src]++
		}
		for src := 0; src < 5; src++ {
			if int(next[ProcID(src)]) != counts[src][dst] {
				t.Fatalf("lost messages %d->%d: got %d want %d", src, dst, next[ProcID(src)], counts[src][dst])
			}
		}
	}
}
