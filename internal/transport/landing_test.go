package transport

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"
	"time"
	"unsafe"
)

// state reports how many registrations dst holds, and whether xid's is
// claimed.
func (t *landingTable) state(dst ProcID, xid uint64) (posted int, claimed bool) {
	ls := t.at(dst)
	if ls == nil {
		return 0, false
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if i := ls.findLocked(xid); i >= 0 {
		claimed = ls.regs[i].claimed
	}
	return len(ls.regs), claimed
}

// blocked reports that done is still open after a grace period — the only
// way to observe "has not returned" is to wait a little.
func blocked(done <-chan struct{}) bool {
	select {
	case <-done:
		return false
	case <-time.After(30 * time.Millisecond):
		return true
	}
}

func TestLandingClaimRelease(t *testing.T) {
	lt := newLandingTable(2, 4) // hosts 2 and 3
	buf := make([]byte, 8)
	lt.post(3, 7, buf)
	lt.post(9, 7, buf) // not hosted: ignored
	lt.withdraw(9, 7)
	lt.drop(9)
	if _, ok := lt.claim(9, 7); ok {
		t.Fatal("claimed a registration at a process the table does not host")
	}
	if _, ok := lt.claim(2, 7); ok {
		t.Fatal("registrations leak across destinations")
	}
	got, ok := lt.claim(3, 7)
	if !ok || &got[0] != &buf[0] {
		t.Fatal("claim did not return the posted buffer")
	}
	if _, ok := lt.claim(3, 7); ok {
		t.Fatal("two readers claimed one buffer")
	}
	// A failed payload keeps the registration for the re-send...
	lt.release(3, 7, false)
	if _, ok := lt.claim(3, 7); !ok {
		t.Fatal("registration lost after a failed landing")
	}
	// ...a complete one consumes it.
	lt.release(3, 7, true)
	if n, _ := lt.state(3, 7); n != 0 {
		t.Fatalf("%d registrations left after a landed frame", n)
	}
	// Posting twice under one XID replaces; a zero-length buffer is a
	// registration like any other (the sink).
	lt.post(3, 8, buf)
	lt.post(3, 8, nil)
	if n, _ := lt.state(3, 8); n != 1 {
		t.Fatalf("re-post left %d registrations", n)
	}
	if got, ok := lt.claim(3, 8); !ok || got != nil {
		t.Fatalf("claim of the sink registration = %v, %v", got, ok)
	}
}

func TestLandingWithdrawWaitsForClaim(t *testing.T) {
	lt := newLandingTable(0, 1)
	lt.post(0, 1, make([]byte, 4))
	lt.post(0, 2, make([]byte, 4))
	if _, ok := lt.claim(0, 1); !ok {
		t.Fatal("claim failed")
	}
	lt.withdraw(0, 2) // unclaimed: immediate
	for _, landed := range []bool{false, true} {
		done := make(chan struct{})
		go func() {
			lt.withdraw(0, 1)
			close(done)
		}()
		if !blocked(done) {
			t.Fatal("withdraw returned while a reader held the buffer")
		}
		lt.release(0, 1, landed)
		<-done
		if n, _ := lt.state(0, 1); n != 0 {
			t.Fatalf("landed=%v: %d registrations after withdraw", landed, n)
		}
		lt.post(0, 1, make([]byte, 4))
		lt.claim(0, 1)
	}
	// drop is withdraw for everything the destination holds.
	lt.post(0, 3, nil)
	done := make(chan struct{})
	go func() {
		lt.drop(0)
		close(done)
	}()
	if !blocked(done) {
		t.Fatal("drop returned while a reader held a buffer")
	}
	lt.release(0, 1, false)
	<-done
	if n, _ := lt.state(0, 1); n != 0 {
		t.Fatalf("%d registrations after drop", n)
	}
}

// sendData lends a rendezvous payload frame from src to dst.
func sendData(t *testing.T, w *wireWorld, src, dst ProcID, xid uint64, payload []byte) {
	t.Helper()
	if err := w.ep(src).SendLent(&Message{Dst: dst, Kind: KindData, XID: xid, Data: payload}); err != nil {
		t.Fatal(err)
	}
}

func TestLandingOverTheWire(t *testing.T) {
	// A posted buffer receives the payload with no pooled copy; a short
	// buffer is filled to its length and no further; without a
	// registration the frame arrives pooled, as it always did.
	onEachTopology(t, 2, func(t *testing.T, w *wireWorld) {
		payload := make([]byte, 3*stagingSize+5)
		rand.New(rand.NewSource(1)).Read(payload)
		const guard = 16
		for xid, bufLen := range []int{len(payload), len(payload) + 100, stagingSize / 2, 0} {
			landedBefore := mLandedFrames.Value()
			buf := bytes.Repeat([]byte{0x5A}, bufLen+guard)
			w.ep(1).PostLanding(uint64(xid), buf[:bufLen])
			sendData(t, w, 0, 1, uint64(xid), payload)
			m := recvN(t, w.ep(1), 1)[0]
			n, landed := m.Landed()
			if !landed || n != len(payload) || m.Data != nil || m.XID != uint64(xid) {
				t.Fatalf("buffer %d: Landed() = %d, %v, %d Data bytes", bufLen, n, landed, len(m.Data))
			}
			fit := min(bufLen, len(payload))
			if !bytes.Equal(buf[:fit], payload[:fit]) {
				t.Fatalf("buffer %d: landed bytes differ", bufLen)
			}
			if !bytes.Equal(buf[fit:], bytes.Repeat([]byte{0x5A}, bufLen+guard-fit)) {
				t.Fatalf("buffer %d: wrote past the payload or the buffer", bufLen)
			}
			if got := mLandedFrames.Value() - landedBefore; got != 1 {
				t.Fatalf("landed-frames counter moved by %d", got)
			}
			if posted, _ := w.pws[1].lands.state(1, uint64(xid)); posted != 0 {
				t.Fatal("landed frame left its registration posted")
			}
			FreeMessage(m)
		}
		sendData(t, w, 0, 1, 99, payload)
		m := recvN(t, w.ep(1), 1)[0]
		if _, landed := m.Landed(); landed || !m.PooledData() || !bytes.Equal(m.Data, payload) {
			t.Fatal("a frame with no registration must arrive with its pooled payload")
		}
		FreeMessage(m)
	})
}

func TestLandingConnClosedMidPayload(t *testing.T) {
	// The sender dies with half a payload written: the reader gives the
	// claim back, a withdraw that was waiting on it returns, the frame is
	// never delivered, and the re-send on a fresh connection lands.
	onEachTopology(t, 2, func(t *testing.T, w *wireWorld) {
		payload := make([]byte, 4*stagingSize)
		rand.New(rand.NewSource(2)).Read(payload)
		buf := make([]byte, len(payload))
		w.ep(1).PostLanding(5, buf)

		c, err := dialRetry(w.pws[1].Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		frame := encodeToBytes(&Message{Src: 0, Dst: 1, Kind: KindData, XID: 5, Data: payload})
		if _, err := c.Write(append(make([]byte, 8), frame[:len(frame)/2]...)); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if _, claimed := w.pws[1].lands.state(1, 5); claimed {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("reader never claimed the registration")
			}
		}
		done := make(chan struct{})
		go func() {
			w.ep(1).WithdrawLanding(5)
			close(done)
		}()
		if !blocked(done) {
			t.Fatal("withdraw returned while the reader was mid-payload")
		}
		c.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("closing the connection did not release the claim")
		}
		if ms := w.ep(1).Drain(); len(ms) != 0 {
			t.Fatalf("half a frame was delivered: %+v", ms[0])
		}

		w.ep(1).PostLanding(5, buf)
		sendData(t, w, 0, 1, 5, payload)
		m := recvN(t, w.ep(1), 1)[0]
		if n, landed := m.Landed(); !landed || n != len(payload) || !bytes.Equal(buf, payload) {
			t.Fatal("the re-send did not land over the partly written buffer")
		}
		FreeMessage(m)
	})
}

func TestLandingReviveClears(t *testing.T) {
	nw, pw, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer pw.Close()
	nw.Endpoint(1).PostLanding(1, make([]byte, 8))
	nw.Endpoint(1).PostLanding(2, nil)
	nw.Endpoint(0).PostLanding(3, make([]byte, 8))
	nw.Kill(1)
	nw.Revive(1)
	if n, _ := pw.lands.state(1, 1); n != 0 {
		t.Fatalf("revived process still holds %d landing registrations", n)
	}
	if n, _ := pw.lands.state(0, 3); n != 1 {
		t.Fatal("reviving one process dropped another's registrations")
	}
}

func TestLentSendNeverPoolsTheBuffer(t *testing.T) {
	// 1,000 lent sends through every way a frame can end — written,
	// dropped for a dead peer, dropped on a closed wire — and the
	// application's buffer, whose capacity is exactly a pool class, never
	// comes back out of GetBuf. What the receiver gets is its own copy:
	// scribbling on the buffer after SendLent returns changes nothing.
	onEachTopology(t, 3, func(t *testing.T, w *wireWorld) {
		app := make([]byte, 64<<10)
		want := make([]byte, len(app))
		w.pws[0].MarkDead(2)
		for i := 0; i < 1000; i++ {
			rand.New(rand.NewSource(int64(i))).Read(app[:64])
			copy(want, app)
			dst := ProcID(1 + i%2) // 1 is alive, 2 is dead
			sendData(t, w, 0, dst, uint64(i), app)
			if n := stagedFrames(w.pws[0]); n != 0 {
				t.Fatalf("send %d: %d frames still staged after SendLent returned", i, n)
			}
			app[0] ^= 0xFF // the caller owns the buffer again
			if dst == 1 {
				m := recvN(t, w.ep(1), 1)[0]
				if !m.PooledData() || !bytes.Equal(m.Data, want) {
					t.Fatalf("send %d: receiver saw the sender's later write, or lost the payload", i)
				}
				FreeMessage(m)
			}
		}
		w.pws[0].Close()
		sendData(t, w, 0, 1, 0, app)

		held := make([][]byte, 0, 256)
		for i := 0; i < cap(held); i++ {
			b := GetBuf(0, len(app))
			if unsafe.SliceData(b) == unsafe.SliceData(app) {
				t.Fatal("GetBuf handed out the application's lent buffer")
			}
			held = append(held, b)
		}
		for _, b := range held {
			FreeBuf(b)
		}
	})
}

func TestLentSendCopiesWhereTheFrameOutlivesTheCall(t *testing.T) {
	// In-process wire, delayed delivery and self-sends queue the frame:
	// it must carry a pooled copy, never the caller's buffer.
	inproc := NewNetwork(2, nil)
	delayed := NewNetwork(2, &DelayModel{Latency: time.Millisecond})
	tcp, pw, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer pw.Close()
	for _, tc := range []struct {
		name     string
		nw       *Network
		src, dst ProcID
	}{
		{"inproc", inproc, 0, 1},
		{"delayed", delayed, 0, 1},
		{"self", tcp, 1, 1},
	} {
		app := []byte("the application's buffer")
		if err := tc.nw.Endpoint(tc.src).SendLent(&Message{Dst: tc.dst, Kind: KindData, Data: app}); err != nil {
			t.Fatal(err)
		}
		app[0] = 'T'
		m := recvOne(t, tc.nw.Endpoint(tc.dst), 2*time.Second)
		if !m.PooledData() || string(m.Data) != "the application's buffer" {
			t.Errorf("%s: queued frame aliases the lent buffer: pooled=%v %q", tc.name, m.PooledData(), m.Data)
		}
		FreeMessage(m)
	}
}

func TestLentSendGoesOutBehindStagedFrames(t *testing.T) {
	onEachTopology(t, 2, func(t *testing.T, w *wireWorld) {
		const eager = 5
		for i := 0; i < eager; i++ {
			if err := w.ep(0).Send(&Message{Dst: 1, Kind: KindEager, Seq: uint64(i), Data: []byte{byte(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		sendData(t, w, 0, 1, 0, make([]byte, 100<<10))
		for i, m := range recvN(t, w.ep(1), eager+1) {
			if want := uint64(i); m.TransportSeq() != want {
				t.Fatalf("frame %d arrived in position of %d: the lent frame overtook staged traffic", m.TransportSeq(), want)
			}
			FreeMessage(m)
		}
	})
}

func TestFrameReaderLargeAndBatched(t *testing.T) {
	// Payloads on both sides of the staging size and of the direct-read
	// threshold, batched back to back, decoded from a stream that arrives
	// whole, in halves, and a byte at a time.
	rng := rand.New(rand.NewSource(3))
	var frames []*Message
	var stream []byte
	for i, n := range []int{0, 1, directReadMin - 1, directReadMin, 100, stagingSize - wireHeaderLen, stagingSize, 3*stagingSize + 7, 12, 0, 2 * directReadMin} {
		m := &Message{Kind: KindEager, Src: 1, Dst: 0, Seq: uint64(i), Data: make([]byte, n)}
		rng.Read(m.Data)
		frames = append(frames, m)
		stream = append(stream, encodeToBytes(m)...)
	}
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"whole":   func(r io.Reader) io.Reader { return r },
		"halves":  iotest.HalfReader,
		"onebyte": iotest.OneByteReader,
		"dataerr": iotest.DataErrReader,
	} {
		fr := newFrameReader(wrap(bytes.NewReader(stream)), nil)
		for i, want := range frames {
			got, err := fr.next()
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if !messagesEqual(want, got) {
				t.Fatalf("%s: frame %d differs", name, i)
			}
			FreeMessage(got)
		}
		if _, err := fr.next(); err != io.EOF {
			t.Fatalf("%s: after the last frame: %v, want io.EOF", name, err)
		}
	}
	// A stream cut anywhere inside a frame is an error, never a frame.
	for _, cut := range []int{1, wireHeaderLen - 1, wireHeaderLen + 1, len(stream) - 1} {
		fr := newFrameReader(bytes.NewReader(stream[:cut]), nil)
		var err error
		for err == nil {
			var m *Message
			if m, err = fr.next(); err == nil {
				FreeMessage(m)
			}
		}
		if cut > wireHeaderLen && err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}
