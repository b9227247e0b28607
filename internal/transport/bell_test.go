package transport

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// bellWorld is a two-peer world with the colocated ring transport armed in
// both directions, the scanners' backstop set to backstop and the given ring
// capacity (0 = default). The backstop is restored after the wires — whose
// scanners read it — are closed: cleanups run last-in first-out, and this
// one is registered before the world's.
func bellWorld(t testing.TB, backstop time.Duration, ringBytes int) (nw0, nw1 *Network, pw0, pw1 *PeerWire) {
	t.Helper()
	if !ringSupported() {
		t.Skip("no mmap ring support on this platform")
	}
	prev := ringBellBackstop
	t.Cleanup(func() { ringBellBackstop = prev })
	ringBellBackstop = backstop
	nw0, nw1, pw0, pw1 = twoPeerWorld(t)
	cfg := RingConfig{Dir: t.TempDir(), Bytes: ringBytes}
	colocated := []bool{true, true}
	pw0.SetRingPeers(cfg, colocated)
	pw1.SetRingPeers(cfg, colocated)
	return
}

// waitScannerParked returns once pw's scanner has raised the parked word of
// every inbound ring and had time to make its last pass and block.
func waitScannerParked(t *testing.T, pw *PeerWire) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		up := true
		for _, rr := range *pw.readers.Load() {
			up = up && rr.pipe.hdr.parked.Load() == 1
		}
		if up {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ring scanner never parked")
		}
		runtime.Gosched()
	}
	time.Sleep(20 * time.Millisecond)
}

func TestDoorbellWakesParkedScanner(t *testing.T) {
	// With the backstop a minute away, only the bell can deliver a frame
	// to a blocked scanner within a second.
	nw0, nw1, pw0, pw1 := bellWorld(t, time.Minute, 0)
	for i := 0; i < 3; i++ {
		waitScannerParked(t, pw1)
		bells, parks := mRingBells.Value(), mRingParks.Value()
		start := time.Now()
		nw0.Endpoint(0).Send(&Message{Dst: 1, Kind: KindEager, Tag: i, Data: []byte("ding")})
		_ = pw0.Flush(0, true)
		m := recvOne(t, nw1.Endpoint(1), 5*time.Second)
		if took := time.Since(start); took > time.Second {
			t.Fatalf("frame %d took %v to reach a parked scanner", i, took)
		}
		if m.Tag != i || string(m.Data) != "ding" {
			t.Fatalf("frame %d corrupted: tag %d data %q", i, m.Tag, m.Data)
		}
		FreeMessage(m)
		if mRingBells.Value() == bells {
			t.Fatalf("frame %d arrived but no bell was rung", i)
		}
		waitScannerParked(t, pw1)
		if mRingParks.Value() == parks {
			t.Fatalf("scanner did not block again after frame %d", i)
		}
	}
}

func TestDoorbellLostBellCostsLatencyNotTheFrame(t *testing.T) {
	// A producer killed between taking the parked word down and writing
	// its byte leaves a published frame, a lowered word and no bell. The
	// scanner's backstop finds the frame.
	nw0, nw1, pw0, pw1 := bellWorld(t, ringBellBackstop, 0)
	waitScannerParked(t, pw1)
	for _, rr := range *pw1.readers.Load() {
		rr.pipe.hdr.parked.Store(0) // what the dying producer's CAS did
	}
	bells := mRingBells.Value()
	nw0.Endpoint(0).Send(&Message{Dst: 1, Kind: KindEager, Tag: 5})
	_ = pw0.Flush(0, true)
	m := recvOne(t, nw1.Endpoint(1), 5*time.Second)
	if m.Tag != 5 {
		t.Fatalf("wrong frame: tag %d", m.Tag)
	}
	FreeMessage(m)
	if got := mRingBells.Value() - bells; got != 0 {
		t.Fatalf("%d bells rung for a word that was down", got)
	}
}

func TestDoorbellRingsBeforeWaitingOnFullRing(t *testing.T) {
	// A frame sixteen times the ring: the producer fills the ring and must
	// wait for the consumer — who is blocked, a minute from its backstop.
	// The bell has to go out with every publish that finds the word up,
	// not when the frame (or the batch) is complete.
	nw0, nw1, pw0, pw1 := bellWorld(t, time.Minute, 4096)
	waitScannerParked(t, pw1)
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	start := time.Now()
	nw0.Endpoint(0).Send(&Message{Dst: 1, Kind: KindEager, Data: payload})
	_ = pw0.Flush(0, true)
	m := recvOne(t, nw1.Endpoint(1), 10*time.Second)
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("oversized frame took %v past a parked scanner", took)
	}
	if string(m.Data) != string(payload) {
		t.Fatalf("oversized frame corrupted (%d bytes)", len(m.Data))
	}
	FreeMessage(m)
}

func TestRingFullWaitIsCounted(t *testing.T) {
	// A producer that finds its ring full still sleep-polls for space
	// (ringBackoff); sdr_transport_ring_full_waits_total is how often, one
	// count per stall however long it lasts.
	w, rr := ringPair(t, 1024)
	full := mRingFullWaits.Value()
	wrote := make(chan error, 1)
	go func() { wrote <- w.push(make([]byte, 1536), nil) }()
	for w.hdr.tail.Load() < 1024 { // published before the producer waits
		runtime.Gosched()
	}
	time.Sleep(5 * time.Millisecond) // the producer is in its stall by now
	if n := readPass(rr.pipe, make([]byte, 1024)); n != 1024 {
		t.Fatalf("read %d bytes from a full 1 KiB ring", n)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if got := mRingFullWaits.Value() - full; got != 1 {
		t.Fatalf("%d full-ring waits counted for one stall, want 1", got)
	}
}

func TestDoorbellCloseWakesParkedScanner(t *testing.T) {
	_, _, _, pw1 := bellWorld(t, time.Minute, 0)
	waitScannerParked(t, pw1)
	start := time.Now()
	pw1.Close()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v with the scanner parked", took)
	}
}

func TestDoorbellParkedScannerIsQuiet(t *testing.T) {
	// Two idle wires, two blocked scanners: each makes one pass per
	// backstop period and nothing in between. (The sleep ladder this
	// replaces made fifty thousand a second, then a thousand.)
	const backstop = 50 * time.Millisecond
	_, _, pw0, pw1 := bellWorld(t, backstop, 0)
	waitScannerParked(t, pw0)
	waitScannerParked(t, pw1)
	const periods = 8
	passes := mRingScanPasses.Value()
	time.Sleep(periods * backstop)
	if got := mRingScanPasses.Value() - passes; got > 2*(periods+1) {
		t.Fatalf("%d passes by two parked scanners over %d backstop periods", got, periods)
	}
}

func TestRingMappingHoldsNoDescriptor(t *testing.T) {
	// A mapped ring needs no descriptor: arming a two-peer ring world and
	// using both directions costs a doorbell per consumer and one per
	// producer that rang, and not one descriptor on a ring file.
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors through /proc/self/fd")
	}
	openFds := func() []string {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip(err)
		}
		var out []string
		for _, e := range ents {
			if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil {
				out = append(out, target)
			}
		}
		sort.Strings(out)
		return out
	}
	if !ringSupported() {
		t.Skip("no mmap ring support on this platform")
	}
	nw0, nw1, pw0, pw1 := twoPeerWorld(t)
	before := openFds()
	cfg := RingConfig{Dir: t.TempDir()}
	pw0.SetRingPeers(cfg, []bool{true, true})
	pw1.SetRingPeers(cfg, []bool{true, true})
	ringOut := mRingFramesOut.Value()
	for _, leg := range []struct {
		from, to *Network
		pw       *PeerWire
		src, dst ProcID
	}{{nw0, nw1, pw0, 0, 1}, {nw1, nw0, pw1, 1, 0}} {
		waitScannerParked(t, pw0)
		waitScannerParked(t, pw1)
		leg.from.Endpoint(leg.src).Send(&Message{Dst: leg.dst, Kind: KindEager})
		_ = leg.pw.Flush(leg.src, true)
		FreeMessage(recvOne(t, leg.to.Endpoint(leg.dst), 5*time.Second))
	}
	if got := mRingFramesOut.Value() - ringOut; got != 2 {
		t.Fatalf("%d frames took the rings, want 2", got)
	}
	after := openFds()
	for _, target := range after {
		if strings.HasPrefix(filepath.Base(target), "ring-") {
			t.Errorf("descriptor still open on mapped ring file %s", target)
		}
	}
	if grew := len(after) - len(before); grew > 4 {
		t.Errorf("arming and using two rings opened %d descriptors, want at most 4 (doorbells)\nbefore: %q\nafter:  %q", grew, before, after)
	}
}

// pingPongLatencies runs n 64-byte round trips between the two processes of
// a two-wire world, each the way an engine does it — send, flush, block —
// and returns the sorted round-trip times.
func pingPongLatencies(tb testing.TB, nw0, nw1 *Network, pw0, pw1 *PeerWire, n int) []time.Duration {
	tb.Helper()
	ep0, ep1 := nw0.Endpoint(0), nw1.Endpoint(1)
	payload := make([]byte, 64)
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for seen := 0; seen < n; {
			if !ep1.WaitActivity(0) {
				return
			}
			for _, m := range ep1.Drain() {
				seen++
				FreeMessage(m)
				ep1.Send(&Message{Dst: 0, Kind: KindEager, Data: payload})
				_ = pw1.Flush(1, true)
			}
		}
	}()
	rtts := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		ep0.Send(&Message{Dst: 1, Kind: KindEager, Data: payload})
		_ = pw0.Flush(0, true)
		for got := false; !got; {
			if !ep0.WaitActivity(5 * time.Second) {
				tb.Fatal("endpoint killed")
			}
			if time.Since(start) > 5*time.Second {
				tb.Fatalf("round trip %d never completed", i)
			}
			for _, m := range ep0.Drain() {
				got = true
				FreeMessage(m)
			}
		}
		rtts = append(rtts, time.Since(start))
	}
	<-echoed
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	return rtts
}

func reportPingPong(b *testing.B, rtts []time.Duration) {
	b.ReportMetric(float64(rtts[len(rtts)/2])/1e3, "p50-us")
	b.ReportMetric(float64(rtts[len(rtts)*9/10])/1e3, "p90-us")
}

// BenchmarkRingPingPong and BenchmarkLoopbackPingPong are one 64-byte round
// trip between two wires of an otherwise idle process — the situation of a
// distributed worker, whose Ps sleep between messages — over the colocated
// ring and over the loopback TCP it replaces. Read the p50/p90 columns, and
// read them against each other: the host's phases move both.
//
//	go test ./internal/transport -run '^$' -bench 'RingPingPong|LoopbackPingPong' -benchtime 5000x
func BenchmarkRingPingPong(b *testing.B) {
	nw0, nw1, pw0, pw1 := bellWorld(b, ringBellBackstop, 0)
	pingPongLatencies(b, nw0, nw1, pw0, pw1, 200) // dial nothing, open the rings, ring once
	b.ResetTimer()
	reportPingPong(b, pingPongLatencies(b, nw0, nw1, pw0, pw1, b.N))
}

func BenchmarkLoopbackPingPong(b *testing.B) {
	nw0, nw1, pw0, pw1 := twoPeerWorld(b)
	pingPongLatencies(b, nw0, nw1, pw0, pw1, 200) // dial both directions
	b.ResetTimer()
	reportPingPong(b, pingPongLatencies(b, nw0, nw1, pw0, pw1, b.N))
}

func TestRingBeatsLoopbackTCP(t *testing.T) {
	// The ring exists to be faster than the loopback socket it bypasses.
	// With a sleeping scanner it was eight times slower wherever the
	// process was otherwise idle. Both are measured here, in the same
	// process and the same host phase; best of three, medians compared.
	if testing.Short() {
		t.Skip("times 12,000 round trips")
	}
	const n = 2000
	rnw0, rnw1, rpw0, rpw1 := bellWorld(t, ringBellBackstop, 0)
	tnw0, tnw1, tpw0, tpw1 := twoPeerWorld(t)
	pingPongLatencies(t, rnw0, rnw1, rpw0, rpw1, 200)
	pingPongLatencies(t, tnw0, tnw1, tpw0, tpw1, 200)
	var ring, tcp time.Duration
	for try := 0; try < 3; try++ {
		ring = pingPongLatencies(t, rnw0, rnw1, rpw0, rpw1, n)[n/2]
		tcp = pingPongLatencies(t, tnw0, tnw1, tpw0, tpw1, n)[n/2]
		t.Logf("try %d: ring p50 %v, loopback TCP p50 %v", try, ring, tcp)
		if ring < tcp {
			return
		}
	}
	t.Fatalf("ring round trip p50 %v, loopback TCP %v: the ring is the slower path", ring, tcp)
}
