package mpi

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/transport"
)

// twoEngines wires two engines on a fresh network.
func twoEngines() (*Engine, *Engine, *transport.Network) {
	nw := transport.NewNetwork(2, nil)
	a := NewEngine(nw, nw.Endpoint(0))
	b := NewEngine(nw, nw.Endpoint(1))
	return a, b, nw
}

func TestCancelPostedRecv(t *testing.T) {
	a, _, nw := twoEngines()
	defer nw.Close()
	r := a.Irecv(1, AnySource, nil, 2, 5, make([]byte, 4))
	if a.PostedLen() != 1 {
		t.Fatal("not posted")
	}
	a.Cancel(r)
	if !r.cancelled || !r.done {
		t.Fatal("cancel flags wrong")
	}
	if a.PostedLen() != 0 {
		t.Fatal("still posted after cancel")
	}
	// Cancel is idempotent and safe on nil.
	a.Cancel(r)
	a.Cancel(nil)
}

func TestCancelPendingRendezvousSend(t *testing.T) {
	a, _, nw := twoEngines()
	defer nw.Close()
	a.EagerLimit = 4
	r := a.Isend(1, 2, 5, make([]byte, 100), 0, [4]int64{})
	if r.done {
		t.Fatal("rendezvous send should be pending before CTS")
	}
	a.Cancel(r)
	if !r.done || !r.cancelled {
		t.Fatal("cancel did not complete the request")
	}
}

func TestCancelSendsTo(t *testing.T) {
	a, _, nw := twoEngines()
	defer nw.Close()
	a.EagerLimit = 4
	r1 := a.Isend(1, 2, 5, make([]byte, 100), 0, [4]int64{})
	r2 := a.Isend(1, 2, 6, make([]byte, 100), 1, [4]int64{})
	a.CancelSendsTo(1)
	if !r1.done || !r2.done {
		t.Fatal("pending rendezvous to dead dest not cancelled")
	}
}

func TestSinkRTSCompletesSender(t *testing.T) {
	a, b, nw := twoEngines()
	defer nw.Close()
	a.EagerLimit = 4
	r := a.Isend(1, 2, 5, []byte("0123456789"), 0, [4]int64{})
	// b drains the RTS and sinks it (as a protocol would for a
	// duplicate), then a receives the CTS and ships the data.
	for _, m := range nw.Endpoint(1).Drain() {
		if m.Kind == transport.KindRTS {
			b.SinkRTS(m)
		}
	}
	a.Progress()
	if !r.done {
		t.Fatal("sender not completed by sink handshake")
	}
	// The sunk data must not fire irecvComplete at b.
	fired := false
	b.OnRecvComplete = func(*PReq) { fired = true }
	b.Progress()
	if fired {
		t.Fatal("sink completion must not be an application event")
	}
}

func TestRebindRTSResumesBrokenHandshake(t *testing.T) {
	a, b, nw := twoEngines()
	defer nw.Close()
	a.EagerLimit = 4
	b.EagerLimit = 4

	// b posts a receive; a's RTS matches it; but a "dies" before the
	// CTS reaches it (we simply drop the CTS by never progressing a).
	buf := make([]byte, 16)
	req := b.Irecv(AnyProc, AnySource, nil, 2, 5, buf)
	var meta [4]int64
	meta[MetaSrcRank] = 9
	a.Isend(1, 2, 5, []byte("payload-on-wire!"), 3, meta)
	b.Progress() // match + CTS (to a, which will never answer)
	if req.done {
		t.Fatal("should await data")
	}
	nw.Endpoint(0).Drain() // discard a's CTS: the handshake is now broken

	// A substitute re-sends the same logical message (same ctx/seq/src
	// rank) from proc 0 with a fresh xid.
	pr2 := a.Isend(1, 2, 5, []byte("payload-on-wire!"), 3, meta)
	_ = pr2
	for _, m := range nw.Endpoint(1).Drain() {
		if m.Kind == transport.KindRTS {
			if !b.RebindRTS(m) {
				t.Fatal("rebind failed to find the broken receive")
			}
		}
	}
	a.Progress() // answer the new CTS with data
	b.Progress() // complete
	if !req.done {
		t.Fatal("rebound handshake did not complete the receive")
	}
	if string(buf) != "payload-on-wire!" {
		t.Fatalf("payload: %q", buf)
	}
}

func TestRebindRTSRejectsUnrelated(t *testing.T) {
	_, b, nw := twoEngines()
	defer nw.Close()
	m := &transport.Message{Kind: transport.KindRTS, Ctx: 2, Seq: 7, XID: 42}
	if b.RebindRTS(m) {
		t.Fatal("rebind with no pending receive should fail")
	}
}

func TestUnexpectedHighWater(t *testing.T) {
	a, _, nw := twoEngines()
	defer nw.Close()
	for i := 0; i < 5; i++ {
		nw.Endpoint(1).Send(&transport.Message{Dst: 0, Kind: transport.KindEager, Ctx: 2, Tag: i, Data: []byte{1}})
	}
	a.Progress()
	if a.UnexpectedHighWater() != 5 {
		t.Fatalf("high water %d", a.UnexpectedHighWater())
	}
	for i := 0; i < 5; i++ {
		a.Irecv(1, AnySource, nil, 2, i, make([]byte, 1))
	}
	if a.UnexpectedLen() != 0 {
		t.Fatal("queue should drain")
	}
	if a.UnexpectedHighWater() != 5 {
		t.Fatal("high water should persist")
	}
}

func TestSeedUnexpected(t *testing.T) {
	a, _, nw := twoEngines()
	defer nw.Close()
	m := &transport.Message{Src: 1, Dst: 0, Kind: transport.KindEager, Ctx: 2, Tag: 7, Data: []byte{42}}
	a.SeedUnexpected([]*transport.Message{m})
	buf := make([]byte, 1)
	r := a.Irecv(1, AnySource, nil, 2, 7, buf)
	if !r.done || buf[0] != 42 {
		t.Fatal("seeded message not delivered")
	}
	if got := a.UnexpectedMessages(); len(got) != 0 {
		t.Fatalf("unexpected queue should be empty, has %d", len(got))
	}
}

func TestRequestFitsAllocationClass(t *testing.T) {
	// One Request is allocated per non-blocking operation and one PReq
	// per receive, under every protocol: growing either moves it to the
	// next allocation class and shows up in every workload's heap.
	if n := unsafe.Sizeof(Request{}); n > 64 {
		t.Errorf("Request is %d bytes, want at most 64", n)
	}
	if n := unsafe.Sizeof(PReq{}); n > 112 {
		t.Errorf("PReq is %d bytes, want at most 112", n)
	}
}

// maxIntRegs is how many integer registers Go's register ABI assigns to
// one argument or result on amd64 and arm64; a value that needs more, or
// holds an array longer than one, goes through memory.
const maxIntRegs = 9

// intRegWords counts the integer-register words of a value of type t, or
// returns ok = false if the ABI cannot pass it in registers at all.
func intRegWords(t reflect.Type) (n int, ok bool) {
	switch t.Kind() {
	case reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return 0, true // floating-point registers
	case reflect.String, reflect.Interface:
		return 2, true
	case reflect.Slice:
		return 3, true
	case reflect.Array:
		switch t.Len() {
		case 0:
			return 0, true
		case 1:
			return intRegWords(t.Elem())
		}
		return 0, false
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			w, ok := intRegWords(t.Field(i).Type)
			if !ok {
				return 0, false
			}
			n += w
		}
		return n, true
	}
	return 1, true // integers, bools, pointers, maps, chans, funcs
}

func TestRequestInRegisters(t *testing.T) {
	// Protocols return a Request by value through every layer; in
	// registers that costs no copy through memory (runtime.duffcopy).
	n, ok := intRegWords(reflect.TypeOf(Request{}))
	if !ok {
		t.Fatal("Request holds an array longer than one: the ABI passes it in memory")
	}
	if n > maxIntRegs {
		t.Errorf("Request needs %d integer registers, the ABI has %d", n, maxIntRegs)
	}
	// The counter itself: an array of two is out, a struct of them adds up.
	if _, ok := intRegWords(reflect.TypeOf([2]*PReq{})); ok {
		t.Error("intRegWords accepts an array of two")
	}
	if n, _ := intRegWords(reflect.TypeOf(struct {
		s []byte
		g Gate
		b bool
	}{})); n != 6 {
		t.Errorf("intRegWords counts %d words for a slice, an interface and a bool, want 6", n)
	}
}

func TestRepeatedWaitReturnsSameStatus(t *testing.T) {
	// A request's status is rebuilt from its receive on every Wait or
	// Test; the receive no longer changes once done, so each call returns
	// the same one. The engine's OnFinish hook runs on the first only.
	runNative(t, 2, func(c *Comm) {
		if c.Rank() == 1 {
			c.Send(0, 9, []byte("abc"))
			return
		}
		hooks := 0
		c.proc.eng.OnFinish = func(*PReq) { hooks++ }
		buf := make([]byte, 8)
		r := c.Irecv(AnySource, AnyTag, buf)
		r.HookFinish()
		want := Status{Source: 1, Tag: 9, Count: 3}
		if st := r.Wait(); st != want {
			t.Errorf("Wait: %+v, want %+v", st, want)
		}
		if st := r.Wait(); st != want {
			t.Errorf("second Wait: %+v, want %+v", st, want)
		}
		if st, done := r.Test(); !done || st != want {
			t.Errorf("Test after Wait: %+v, %v, want %+v", st, done, want)
		}
		Waitall(r)
		if hooks != 1 {
			t.Errorf("OnFinish ran %d times, want 1", hooks)
		}
		null := c.Irecv(ProcNull, 0, buf)
		nullSt := Status{Source: ProcNull, Tag: AnyTag}
		if st := null.Wait(); st != nullSt || null.Wait() != nullSt {
			t.Errorf("receive from ProcNull: %+v, want %+v", st, nullSt)
		}
		if st := c.Isend(ProcNull, 0, buf).Wait(); st != (Status{}) {
			t.Errorf("send to ProcNull: %+v, want the zero Status", st)
		}
	})
}

func TestMessageAndEndpointFitAllocationClasses(t *testing.T) {
	// A Message is allocated per frame on a pool miss and an Endpoint per
	// process per network — n² of them in a worker mesh. The landed length
	// rides in Message's padding, and the landing table hangs off the wire
	// rather than the endpoint, to keep both where they were: PR 16
	// measured +0.3 % alloc_B_per_msg on wire-ring-128 for 16 bytes more.
	if n := unsafe.Sizeof(transport.Message{}); n > 128 {
		t.Errorf("transport.Message is %d bytes, want at most 128", n)
	}
	if n := unsafe.Sizeof(transport.Endpoint{}); n > 160 {
		t.Errorf("transport.Endpoint is %d bytes, want at most 160", n)
	}
}
