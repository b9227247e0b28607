package mpi

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// Rendezvous over both wires, at the engine level: the socket wire lands
// the payload in the posted receive buffer, the in-process wire delivers it
// pooled and the engine copies — same bytes, same status, same events.

// landedFrames reads the transport's landed-frames counter.
func landedFrames() float64 {
	return obs.Default.Snapshot()["sdr_transport_landed_frames_total"]
}

// wires builds an n-process network per wire kind.
var wires = []struct {
	name  string
	lands bool
	build func(t *testing.T, n int) *transport.Network
}{
	{"inproc", false, func(t *testing.T, n int) *transport.Network {
		nw := transport.NewNetwork(n, nil)
		t.Cleanup(func() { nw.Close() })
		return nw
	}},
	{"tcp", true, func(t *testing.T, n int) *transport.Network {
		nw, _, err := transport.NewTCPNetwork(n)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nw.Close() })
		return nw
	}},
}

// engines builds one engine per process of nw, all switching to rendezvous
// above 1 KiB.
func engines(nw *transport.Network) []*Engine {
	es := make([]*Engine, nw.Size())
	for i := range es {
		es[i] = NewEngine(nw, nw.Endpoint(transport.ProcID(i)))
		es[i].EagerLimit = 1 << 10
	}
	return es
}

// pump drives the engines from the test goroutine until cond holds: one
// progress round each, then a forced wire flush (what WaitUntil does before
// it blocks). Over sockets the frames arrive on the wire's reader
// goroutines, so the loop polls.
func pump(t *testing.T, cond func() bool, es ...*Engine) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timeout pumping engines")
		}
		for _, e := range es {
			e.Progress()
			e.nw.FlushWire(e.Proc(), true)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func randomBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestRendezvousTruncatedReceive(t *testing.T) {
	// A receive buffer shorter than the payload: the request is truncated,
	// the status reports the sender's length, the buffer holds the prefix
	// and the bytes behind it are untouched — however the payload came.
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			es := engines(w.build(t, 2))
			a, b := es[0], es[1]
			payload := randomBytes(1, 300<<10)
			const short, guard = 100 << 10, 64
			mem := bytes.Repeat([]byte{0x5A}, short+guard)
			before := landedFrames()

			req := b.Irecv(0, AnySource, nil, 2, 5, mem[:short])
			sreq := a.Isend(1, 2, 5, payload, 0, [4]int64{})
			pump(t, func() bool { return req.done && sreq.done }, a, b)

			if !req.truncated || req.PStatus().Count != len(payload) {
				t.Fatalf("truncated=%v count=%d, want true and the sender's %d", req.truncated, req.PStatus().Count, len(payload))
			}
			if !bytes.Equal(mem[:short], payload[:short]) {
				t.Fatal("receive buffer does not hold the payload's prefix")
			}
			if !bytes.Equal(mem[short:], bytes.Repeat([]byte{0x5A}, guard)) {
				t.Fatal("bytes behind the receive buffer were overwritten")
			}
			if got := landedFrames() - before; (got == 1) != w.lands {
				t.Fatalf("landed frames moved by %v on the %s wire", got, w.name)
			}
			// The stream is still framed: an eager message behind the
			// truncated payload arrives whole.
			small := make([]byte, 8)
			req2 := b.Irecv(0, AnySource, nil, 2, 6, small)
			a.Isend(1, 2, 6, []byte("in frame"), 1, [4]int64{})
			pump(t, func() bool { return req2.done }, a, b)
			if string(small) != "in frame" {
				t.Fatalf("message behind the truncated payload: %q", small)
			}
		})
	}
}

func TestRebindRTSMovesTheLanding(t *testing.T) {
	// The original sender breaks the handshake after the receiver cleared
	// it to send; a substitute's duplicate RTS takes over the receive —
	// and its landing buffer. The payload of the stale exchange, should it
	// still show up, must not reach the buffer: it differs here (which
	// send-determinism forbids) precisely so that a stray write shows.
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			es := engines(w.build(t, 3))
			orig, b, subst := es[0], es[1], es[2]
			var meta [4]int64
			meta[MetaSrcRank] = 9
			good, stale := randomBytes(2, 200<<10), randomBytes(3, 200<<10)
			buf := make([]byte, len(good))
			before := landedFrames()

			req := b.Irecv(AnyProc, AnySource, nil, 2, 5, buf)
			origReq := orig.Isend(1, 2, 5, stale, 3, meta)
			orig.nw.FlushWire(0, true)
			pump(t, func() bool { return b.PostedLen() == 0 }, b) // matched: CTS is on its way to orig
			if req.done {
				t.Fatal("receive completed without a payload")
			}

			// The substitute re-sends the same logical message (same
			// context, sequence and source rank).
			substReq := subst.Isend(1, 2, 5, good, 3, meta)
			subst.nw.FlushWire(2, true)
			var rts *transport.Message
			for rts == nil {
				b.Endpoint().WaitActivity(time.Second)
				for _, m := range b.Endpoint().Drain() {
					if m.Kind != transport.KindRTS {
						t.Fatalf("unexpected %v at the receiver", m.Kind)
					}
					rts = m
				}
			}
			if !b.RebindRTS(rts) {
				t.Fatal("rebind failed to find the broken receive")
			}
			transport.FreeMessage(rts)
			pump(t, func() bool { return req.done && substReq.done }, b, subst)
			if !bytes.Equal(buf, good) || req.PStatus().SrcPhys != 2 {
				t.Fatalf("rebound receive: src %d, payload intact %v", req.PStatus().SrcPhys, bytes.Equal(buf, good))
			}

			// Now the original sender answers its CTS after all: the stale
			// payload finds no registration, arrives pooled under an XID
			// the receiver no longer knows, and is dropped.
			pump(t, func() bool { return origReq.done }, orig)
			for deadline := time.Now().Add(10 * time.Second); !b.Progress(); time.Sleep(50 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatal("the stale payload never arrived")
				}
			}
			if !bytes.Equal(buf, good) {
				t.Fatal("the stale exchange's payload reached the rebound buffer")
			}
			if got := landedFrames() - before; (got == 1) != w.lands {
				t.Fatalf("landed frames moved by %v on the %s wire", got, w.name)
			}
		})
	}
}

func TestSinkRTSSkipsThePayload(t *testing.T) {
	// A duplicate rendezvous completes its sender and costs the receiver
	// neither a buffer nor an event; the stream behind it stays framed.
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			es := engines(w.build(t, 2))
			a, b := es[0], es[1]
			fired := 0
			b.OnRecvComplete = func(*PReq) { fired++ }
			before := landedFrames()

			sreq := a.Isend(1, 2, 5, randomBytes(4, 1<<20), 0, [4]int64{})
			a.nw.FlushWire(0, true)
			var rts *transport.Message
			for rts == nil {
				b.Endpoint().WaitActivity(time.Second)
				if ms := b.Endpoint().Drain(); len(ms) > 0 {
					rts = ms[0]
				}
			}
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.SinkRTS(rts)
			runtime.ReadMemStats(&ms1)
			transport.FreeMessage(rts)
			if grew := ms1.TotalAlloc - ms0.TotalAlloc; grew > 64<<10 {
				t.Errorf("SinkRTS allocated %d bytes for a 1 MiB duplicate", grew)
			}

			small := make([]byte, 8)
			req := b.Irecv(0, AnySource, nil, 2, 6, small)
			pump(t, func() bool { return sreq.done }, a, b)
			a.Isend(1, 2, 6, []byte("in frame"), 1, [4]int64{})
			pump(t, func() bool { return req.done }, a, b)
			if string(small) != "in frame" || fired != 1 {
				t.Fatalf("behind the sink: %q, %d completion events (want 1)", small, fired)
			}
			if got := landedFrames() - before; (got == 1) != w.lands {
				t.Fatalf("landed frames moved by %v on the %s wire", got, w.name)
			}
		})
	}
}
