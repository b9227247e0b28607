package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// One body per wire property, run on both ways the socket wire is hosted:
// a loopback network (one wire hosts every process) and a worker mesh (one
// single-process wire per process, each on its own network).

// wireWorld is an n-process world on the socket wire.
type wireWorld struct {
	nws []*Network  // nws[p]: the network process p lives on
	pws []*PeerWire // pws[p]: the wire hosting process p
}

func (w *wireWorld) ep(p ProcID) *Endpoint { return w.nws[p].Endpoint(p) }

// link is the outbound state of the ordered pair src→dst.
func (w *wireWorld) link(src, dst ProcID) *link { return wireLink(w.pws[src], src, dst) }

func wireLink(pw *PeerWire, src, dst ProcID) *link { return &pw.srcs[src-pw.lo].links[dst] }

// stagedFrames is the number of frames staged on pw across its sources.
func stagedFrames(pw *PeerWire) (n int64) {
	for i := range pw.srcs {
		n += pw.srcs[i].staged.Load()
	}
	return n
}

// topologies build an n-process world. wrap, when non-nil, is applied to
// every listener before its wire starts accepting on it (fault injection);
// without it the worlds come from the public constructors.
var topologies = []struct {
	name  string
	build func(t *testing.T, n int, wrap func(net.Listener) net.Listener) *wireWorld
}{
	{"loopback", func(t *testing.T, n int, wrap func(net.Listener) net.Listener) *wireWorld {
		var nw *Network
		var pw *PeerWire
		if wrap == nil {
			var err error
			if nw, pw, err = NewTCPNetwork(n); err != nil {
				t.Fatal(err)
			}
		} else {
			nw = NewNetwork(n, nil)
			pw = newPeerWire(nw, 0, ProcID(n), wrap(listenLoopback(t)))
		}
		w := &wireWorld{}
		addrs := make([]string, n)
		for p := range addrs {
			w.nws, w.pws, addrs[p] = append(w.nws, nw), append(w.pws, pw), pw.Addr()
		}
		pw.SetPeers(addrs)
		t.Cleanup(func() { pw.Close() })
		return w
	}},
	{"workers", func(t *testing.T, n int, wrap func(net.Listener) net.Listener) *wireWorld {
		w := &wireWorld{}
		addrs := make([]string, n)
		for p := range addrs {
			var nw *Network
			var pw *PeerWire
			if wrap == nil {
				var err error
				if nw, pw, err = NewPeerNetwork(n, ProcID(p), ""); err != nil {
					t.Fatal(err)
				}
			} else {
				nw = NewNetwork(n, nil)
				pw = newPeerWire(nw, ProcID(p), ProcID(p)+1, wrap(listenLoopback(t)))
			}
			w.nws, w.pws, addrs[p] = append(w.nws, nw), append(w.pws, pw), pw.Addr()
			t.Cleanup(func() { pw.Close() })
		}
		for _, pw := range w.pws {
			pw.SetPeers(addrs)
		}
		return w
	}},
}

// onEachTopology runs body once per hosting of an n-process world.
func onEachTopology(t *testing.T, n int, body func(t *testing.T, w *wireWorld)) {
	t.Helper()
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) { body(t, topo.build(t, n, nil)) })
	}
}

func listenLoopback(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// recvN drains endpoint ep until n messages arrived or the deadline hits.
func recvN(t *testing.T, ep *Endpoint, n int) []*Message {
	t.Helper()
	var got []*Message
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timeout: received %d/%d", len(got), n)
		}
		ep.WaitActivity(100 * time.Millisecond)
		got = append(got, ep.Drain()...)
	}
	return got
}

func TestWireRoundTrip(t *testing.T) {
	onEachTopology(t, 3, func(t *testing.T, w *wireWorld) {
		bytesIn, bytesOut := mBytesIn.Value(), mBytesOut.Value()
		const n = 100
		for i := 0; i < n; i++ {
			data := []byte(fmt.Sprintf("msg-%d", i))
			if err := w.ep(0).Send(&Message{Dst: 2, Kind: KindEager, Seq: uint64(i), Data: data}); err != nil {
				t.Fatal(err)
			}
		}
		// ...and one rendezvous payload that lands: its bytes reach the
		// receiver without ever being a frame's Data, and count all the same.
		landing := make([]byte, 100<<10)
		w.ep(2).PostLanding(1, landing)
		if err := w.ep(0).SendLent(&Message{Dst: 2, Kind: KindData, XID: 1, Data: bytes.Repeat([]byte{7}, len(landing))}); err != nil {
			t.Fatal(err)
		}
		got := recvN(t, w.ep(2), n+1)
		if size, landed := got[n].Landed(); !landed || size != len(landing) || landing[len(landing)-1] != 7 {
			t.Fatalf("rendezvous payload did not land: %d, %v", size, landed)
		}
		for i, m := range got[:n] {
			if m.Src != 0 || m.Seq != uint64(i) {
				t.Fatalf("wire reordered: pos %d src %d seq %d", i, m.Src, m.Seq)
			}
			if want := fmt.Sprintf("msg-%d", i); string(m.Data) != want {
				t.Fatalf("payload mismatch at %d: %q", i, m.Data)
			}
		}
		// Both ends of every socket are in this process, so what was
		// written is what was read — on either topology. The writer counts
		// after its write returns, so the last batch's "out" may trail the
		// delivery this test just saw.
		deadline := time.Now().Add(2 * time.Second)
		for {
			in, out := mBytesIn.Value()-bytesIn, mBytesOut.Value()-bytesOut
			if in == out && out != 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("sdr_transport_bytes_total: in=%d out=%d, want equal and nonzero", in, out)
			}
			time.Sleep(time.Millisecond)
		}
	})
}

func TestWireConcurrentSenders(t *testing.T) {
	onEachTopology(t, 4, func(t *testing.T, w *wireWorld) {
		const per = 200
		var wg sync.WaitGroup
		for src := ProcID(0); src < 3; src++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					w.ep(src).Send(&Message{Dst: 3, Kind: KindEager, Seq: uint64(i)})
				}
			}()
		}
		wg.Wait()
		next := map[ProcID]uint64{}
		for _, m := range recvN(t, w.ep(3), 3*per) {
			if m.Seq != next[m.Src] {
				t.Fatalf("out of order from %d: %d want %d", m.Src, m.Seq, next[m.Src])
			}
			next[m.Src]++
		}
	})
}

func TestWireAddr(t *testing.T) {
	onEachTopology(t, 2, func(t *testing.T, w *wireWorld) {
		if addr := w.pws[0].Addr(); !strings.Contains(addr, ":") {
			t.Errorf("Addr = %q", addr)
		}
	})
}

func TestWireSelfSendNeverDials(t *testing.T) {
	// A process's message to itself is injected directly: no connection,
	// no flush — even on the loopback wire, where every other pair crosses
	// a socket.
	onEachTopology(t, 2, func(t *testing.T, w *wireWorld) {
		flushes := mFlushes.Value()
		if err := w.ep(1).Send(&Message{Dst: 1, Kind: KindEager, Tag: 1}); err != nil {
			t.Fatal(err)
		}
		if ms := w.ep(1).Drain(); len(ms) != 1 || ms[0].Tag != 1 {
			t.Fatalf("self-send not queued synchronously: %v", ms)
		}
		if w.link(1, 1).tc.Load() != nil || stagedFrames(w.pws[1]) != 0 || mFlushes.Value() != flushes {
			t.Fatal("self-send touched the socket path")
		}
	})
}

func TestWireRedialMidBatchKeepsFraming(t *testing.T) {
	// A connection that dies with frames staged must not misframe: the
	// flush retries the WHOLE batch on a fresh dial (the old stream is
	// mid-batch and unusable), so the receiver sees either clean frames or
	// nothing — never a torn header. Run under -race this also checks the
	// staged frames' pool ownership across the redial.
	onEachTopology(t, 2, func(t *testing.T, w *wireWorld) {
		// Establish the (0,1) connection.
		if err := w.ep(0).Send(&Message{Dst: 1, Kind: KindEager, Tag: 0, Data: []byte("warmup")}); err != nil {
			t.Fatal(err)
		}
		FreeMessage(recvN(t, w.ep(1), 1)[0])

		// Sabotage the cached connection underneath the wire, then stage a
		// multi-frame batch and flush: the vectored write fails mid-stream
		// and the batch must come through intact on the redial.
		tc := w.link(0, 1).tc.Load()
		if tc == nil {
			t.Fatal("no cached connection after warmup")
		}
		tc.c.Close()
		redials := mRedials.Value()

		const n = 20
		for i := 1; i <= n; i++ {
			payload := []byte(fmt.Sprintf("frame-%03d", i))
			if err := w.ep(0).Send(&Message{Dst: 1, Kind: KindEager, Tag: i, Data: payload}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.pws[0].Flush(0, true); err != nil {
			t.Fatalf("Flush must not surface write errors, got %v", err)
		}
		for i, m := range recvN(t, w.ep(1), n) {
			if want := fmt.Sprintf("frame-%03d", i+1); m.Tag != i+1 || string(m.Data) != want {
				t.Fatalf("frame %d arrived as tag %d %q: order or framing lost across redial", i+1, m.Tag, m.Data)
			}
			FreeMessage(m)
		}
		if w.link(0, 1).tc.Load() == tc {
			t.Fatal("poisoned connection still cached")
		}
		if mRedials.Value() == redials {
			t.Fatal("sabotaged connection did not count on sdr_transport_redials_total")
		}
	})
}

// flakyListener wraps a real listener, failing the first `failures` Accept
// calls with a transient (non-closed) error.
type flakyListener struct {
	net.Listener
	failures int
}

func (f *flakyListener) Accept() (net.Conn, error) {
	if f.failures > 0 {
		f.failures--
		return nil, fmt.Errorf("accept: %w", errTransient)
	}
	return f.Listener.Accept()
}

var errTransient = errors.New("transient accept failure")

func TestWireAcceptLoopRetriesTransientError(t *testing.T) {
	// A transient Accept error (ECONNABORTED, EMFILE, ...) must not kill
	// the listener for the rest of the run: later dials still connect and
	// messages still flow.
	flaky := func(ln net.Listener) net.Listener { return &flakyListener{Listener: ln, failures: 3} }
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			w := topo.build(t, 2, flaky)
			if err := w.ep(0).Send(&Message{Dst: 1, Kind: KindEager, Data: []byte("through")}); err != nil {
				t.Fatal(err)
			}
			if got := recvN(t, w.ep(1), 1); string(got[0].Data) != "through" {
				t.Fatalf("payload = %q", got[0].Data)
			}
		})
	}
}

func TestWireCloseStopsAcceptLoop(t *testing.T) {
	// Shutdown must still terminate the loop (not spin retrying the
	// closed listener).
	onEachTopology(t, 2, func(t *testing.T, w *wireWorld) {
		done := make(chan struct{})
		go func() {
			w.pws[0].Close() // waits on the wire's wg: hangs forever if acceptLoop spins
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not stop the accept loop")
		}
	})
}
