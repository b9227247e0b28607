package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/transport"
)

func TestSendRecvBasic(t *testing.T) {
	runNative(t, 2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 42, []byte("payload"))
		case 1:
			buf := make([]byte, 16)
			st := c.Recv(0, 42, buf)
			if st.Source != 0 || st.Tag != 42 || st.Count != 7 {
				t.Errorf("bad status: %+v", st)
			}
			if string(buf[:st.Count]) != "payload" {
				t.Errorf("bad payload: %q", buf[:st.Count])
			}
		}
	})
}

func TestSendRecvEmptyMessage(t *testing.T) {
	runNative(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, nil)
		} else {
			st := c.Recv(0, 0, nil)
			if st.Count != 0 {
				t.Errorf("count = %d", st.Count)
			}
		}
	})
}

func TestIsendBufferReusableAfterWait(t *testing.T) {
	runNative(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []byte{1}
			r := c.Isend(1, 0, buf)
			r.Wait()
			buf[0] = 99 // must not corrupt the in-flight payload
			c.Send(1, 1, []byte{2})
		} else {
			b := make([]byte, 1)
			c.Recv(0, 0, b)
			if b[0] != 1 {
				t.Errorf("eager payload corrupted: %d", b[0])
			}
			c.Recv(0, 1, b)
		}
	})
}

func TestRendezvousLargeMessage(t *testing.T) {
	runNative(t, 2, func(c *Comm) {
		n := DefaultEagerLimit * 3
		if c.Rank() == 0 {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(i * 7)
			}
			c.Send(1, 5, data)
		} else {
			buf := make([]byte, n)
			st := c.Recv(0, 5, buf)
			if st.Count != n {
				t.Errorf("count = %d want %d", st.Count, n)
			}
			for i := range buf {
				if buf[i] != byte(i*7) {
					t.Errorf("corrupt at %d", i)
					break
				}
			}
		}
	})
}

func TestRendezvousUnexpected(t *testing.T) {
	// Sender's RTS arrives before the receive is posted; the message must
	// sit in the unexpected queue as an envelope and complete later.
	runNative(t, 2, func(c *Comm) {
		n := DefaultEagerLimit + 1
		if c.Rank() == 0 {
			data := make([]byte, n)
			data[n-1] = 0xAB
			r := c.Isend(1, 1, data)
			c.Send(1, 2, []byte("done"))
			r.Wait()
		} else {
			// Receive the small eager message first: it was sent after
			// the big one, so the RTS must already be queued unexpected.
			small := make([]byte, 8)
			c.Recv(0, 2, small)
			buf := make([]byte, n)
			st := c.Recv(0, 1, buf)
			if st.Count != n || buf[n-1] != 0xAB {
				t.Errorf("rendezvous via unexpected queue failed: %+v", st)
			}
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	runNative(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte{1})
			c.Send(1, 2, []byte{2})
			c.Send(1, 3, []byte{3})
		} else {
			buf := make([]byte, 1)
			// Receive out of tag order: matching must be by tag, with
			// non-overtaking within a tag.
			c.Recv(0, 3, buf)
			if buf[0] != 3 {
				t.Errorf("tag 3 got %d", buf[0])
			}
			c.Recv(0, 1, buf)
			if buf[0] != 1 {
				t.Errorf("tag 1 got %d", buf[0])
			}
			c.Recv(0, 2, buf)
			if buf[0] != 2 {
				t.Errorf("tag 2 got %d", buf[0])
			}
		}
	})
}

func TestNonOvertakingSameTag(t *testing.T) {
	runNative(t, 2, func(c *Comm) {
		const k = 50
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				c.Send(1, 7, []byte{byte(i)})
			}
		} else {
			buf := make([]byte, 1)
			for i := 0; i < k; i++ {
				c.Recv(0, 7, buf)
				if buf[0] != byte(i) {
					t.Errorf("overtaking: pos %d got %d", i, buf[0])
				}
			}
		}
	})
}

func TestAnyTag(t *testing.T) {
	runNative(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1234, []byte("x"))
		} else {
			buf := make([]byte, 1)
			st := c.Recv(0, AnyTag, buf)
			if st.Tag != 1234 {
				t.Errorf("tag = %d", st.Tag)
			}
		}
	})
}

func TestAnySource(t *testing.T) {
	runNative(t, 4, func(c *Comm) {
		if c.Rank() == 0 {
			seen := map[Rank]bool{}
			buf := make([]byte, 1)
			for i := 0; i < 3; i++ {
				st := c.Recv(AnySource, 9, buf)
				if buf[0] != byte(st.Source) {
					t.Errorf("payload/source mismatch: %d vs %d", buf[0], st.Source)
				}
				seen[st.Source] = true
			}
			if len(seen) != 3 {
				t.Errorf("sources seen: %v", seen)
			}
		} else {
			c.Send(0, 9, []byte{byte(c.Rank())})
		}
	})
}

func TestWildcardDoesNotStealOtherContext(t *testing.T) {
	// A wildcard receive on the p2p context must not match collective
	// traffic: run a barrier "through" a posted wildcard.
	runNative(t, 2, func(c *Comm) {
		buf := make([]byte, 8)
		var rr *Request
		if c.Rank() == 0 {
			rr = c.Irecv(AnySource, AnyTag, buf)
		}
		// The barrier's collective traffic flows through rank 0 while the
		// wildcard is posted; context isolation must keep it unmatched.
		c.Barrier()
		if c.Rank() == 1 {
			c.Send(0, 1, []byte("ok"))
			return
		}
		st := rr.Wait()
		if string(buf[:st.Count]) != "ok" || st.Source != 1 {
			t.Errorf("wildcard matched wrong message: %q from %d", buf[:st.Count], st.Source)
		}
	})
}

func TestSendrecv(t *testing.T) {
	runNative(t, 4, func(c *Comm) {
		size := Rank(c.Size())
		right := (c.Rank() + 1) % size
		left := (c.Rank() - 1 + size) % size
		out := []byte{byte(c.Rank())}
		in := make([]byte, 1)
		st := c.Sendrecv(right, 3, out, left, 3, in)
		if st.Source != left || in[0] != byte(left) {
			t.Errorf("sendrecv: got %d from %d", in[0], st.Source)
		}
	})
}

func TestTestAndDone(t *testing.T) {
	runNative(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			buf := make([]byte, 1)
			r := c.Irecv(1, 0, buf)
			// MPI_Test semantics: eventually completes, no blocking.
			for {
				if _, ok := r.Test(); ok {
					break
				}
			}
			if !r.Done() {
				t.Error("Done should hold after Test success")
			}
		} else {
			c.Send(0, 0, []byte{1})
		}
	})
}

func TestWaitallWaitany(t *testing.T) {
	runNative(t, 3, func(c *Comm) {
		if c.Rank() == 0 {
			b1 := make([]byte, 1)
			b2 := make([]byte, 1)
			r1 := c.Irecv(1, 0, b1)
			r2 := c.Irecv(2, 0, b2)
			Waitall(r1, nil, r2)
			// Waitall returns nothing; a finished request's Wait returns
			// its status again.
			sts := []Status{r1.Wait(), {}, r2.Wait()}
			if sts[0].Source != 1 || sts[1] != (Status{}) || sts[2].Source != 2 || sts[2].Count != 1 {
				t.Errorf("statuses: %+v", sts)
			}
			if b1[0] != 1 || b2[0] != 2 {
				t.Errorf("payloads: %d %d", b1[0], b2[0])
			}
		} else {
			c.Send(0, 0, []byte{byte(c.Rank())})
		}
	})
}

func TestTruncationPanics(t *testing.T) {
	nw := transport.NewNetwork(2, nil)
	defer nw.Close()
	done := make(chan any, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			var rec any
			defer func() { done <- rec }()
			defer func() { rec = recover() }()
			proc := NewProc(nw, transport.ProcID(i))
			world := NewWorld(proc, NewNative(proc), 2)
			if world.Rank() == 0 {
				world.Send(1, 0, []byte("too large for the buffer"))
			} else {
				tiny := make([]byte, 2)
				world.Recv(0, 0, tiny)
			}
		}(i)
	}
	sawPanic := false
	for i := 0; i < 2; i++ {
		if r := <-done; r != nil {
			sawPanic = true
			if s, ok := r.(string); !ok || !bytes.Contains([]byte(s), []byte("truncation")) {
				t.Errorf("unexpected panic value: %v", r)
			}
		}
	}
	if !sawPanic {
		t.Error("receiver should panic on truncation")
	}
}

func TestManyToOneStress(t *testing.T) {
	const n = 8
	runNative(t, n, func(c *Comm) {
		const per = 100
		if c.Rank() == 0 {
			counts := map[Rank]int{}
			buf := make([]byte, 8)
			for i := 0; i < (n-1)*per; i++ {
				st := c.Recv(AnySource, AnyTag, buf)
				counts[st.Source]++
			}
			for r := Rank(1); r < n; r++ {
				if counts[r] != per {
					t.Errorf("rank %d: %d messages", r, counts[r])
				}
			}
		} else {
			for i := 0; i < per; i++ {
				c.Send(0, i, []byte(fmt.Sprintf("%d:%d", c.Rank(), i)))
			}
		}
	})
}

func TestBidirectionalFlood(t *testing.T) {
	runNative(t, 2, func(c *Comm) {
		const k = 200
		other := 1 - c.Rank()
		var reqs []*Request
		recvBufs := make([][]byte, k)
		for i := 0; i < k; i++ {
			recvBufs[i] = make([]byte, 4)
			reqs = append(reqs, c.Irecv(other, i, recvBufs[i]))
		}
		for i := 0; i < k; i++ {
			c.Send(other, i, []byte{byte(i), byte(i >> 8), 0, 0})
		}
		Waitall(reqs...)
		for i := 0; i < k; i++ {
			if recvBufs[i][0] != byte(i) {
				t.Errorf("message %d corrupted", i)
			}
		}
	})
}

func TestEngineQueueIntrospection(t *testing.T) {
	runNative(t, 2, func(c *Comm) {
		eng := c.Proc().Engine()
		if c.Rank() == 0 {
			c.Send(1, 1, []byte{1})
			c.Send(1, 2, []byte{2})
			c.Recv(1, 0, make([]byte, 1))
		} else {
			// Let both messages arrive unmatched.
			c.Recv(0, 2, make([]byte, 1)) // consumes tag 2, leaves tag 1 unexpected
			if eng.UnexpectedLen() != 1 {
				t.Errorf("unexpected len = %d, want 1", eng.UnexpectedLen())
			}
			c.Recv(0, 1, make([]byte, 1))
			if eng.UnexpectedLen() != 0 {
				t.Errorf("unexpected len = %d, want 0", eng.UnexpectedLen())
			}
			c.Send(0, 0, []byte{0})
		}
	})
}
