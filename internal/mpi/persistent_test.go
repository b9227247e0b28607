package mpi

import (
	"testing"
)

func TestPersistentPingPong(t *testing.T) {
	// The canonical persistent-request pattern: capture the argument list
	// once, Start/Wait in a loop. Each iteration must see fresh buffer
	// contents on both sides.
	runNative(t, 2, func(c *Comm) {
		const iters = 20
		buf := make([]byte, 8)
		switch c.Rank() {
		case 0:
			send := c.SendInit(1, 1, buf)
			recv := c.RecvInit(1, 2, buf)
			for i := 0; i < iters; i++ {
				buf[0] = byte(i)
				send.Start()
				send.Wait()
				recv.Start()
				recv.Wait()
				if buf[0] != byte(i)+100 {
					t.Errorf("iter %d: echo = %d, want %d", i, buf[0], i+100)
				}
			}
		case 1:
			recv := c.RecvInit(0, 1, buf)
			send := c.SendInit(0, 2, buf)
			for i := 0; i < iters; i++ {
				recv.Start()
				st := recv.Wait()
				if st.Source != 0 || st.Count != 8 {
					t.Errorf("iter %d: status %+v", i, st)
				}
				buf[0] += 100
				send.Start()
				send.Wait()
			}
		}
	})
}

func TestPersistentStartall(t *testing.T) {
	// A fixed halo stencil on a ring: every rank has one persistent send
	// and one persistent receive per neighbour, started together.
	const n = 4
	runNative(t, n, func(c *Comm) {
		rank := int(c.Rank())
		right := Rank((rank + 1) % n)
		left := Rank((rank - 1 + n) % n)
		out := []byte{byte(rank)}
		in := make([]byte, 1)
		reqs := []*Persistent{
			c.RecvInit(left, 9, in),
			c.SendInit(right, 9, out),
		}
		for iter := 0; iter < 10; iter++ {
			Startall(reqs...)
			WaitallPersistent(reqs...)
			if want := byte((rank - 1 + n) % n); in[0] != want {
				t.Errorf("iter %d: got %d from left, want %d", iter, in[0], want)
			}
		}
	})
}

func TestPersistentDoubleStart(t *testing.T) {
	runNative(t, 2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			// A receive that will not be matched until rank 1 sends, so
			// the request is still active at the second Start.
			buf := make([]byte, 4)
			p := c.RecvInit(1, 5, buf)
			p.Start()
			mustRaise(t, ErrRequest, p.Start) // not a double post
			c.Send(1, 6, []byte{1})           // release rank 1
			p.Wait()
		case 1:
			c.Recv(0, 6, make([]byte, 1))
			c.Send(0, 5, []byte{1, 2, 3, 4})
		}
	})
}

func TestPersistentTest(t *testing.T) {
	runNative(t, 2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			buf := make([]byte, 4)
			p := c.RecvInit(1, 3, buf)
			// Inactive: tests complete.
			if _, done := p.Test(); !done {
				t.Error("inactive persistent request should test complete")
			}
			p.Start()
			if !p.Active() {
				t.Error("started request should be active")
			}
			c.Send(1, 4, nil) // let the sender go
			for {
				st, done := p.Test()
				if done {
					if st.Count != 4 {
						t.Errorf("count = %d, want 4", st.Count)
					}
					break
				}
			}
			if p.Active() {
				t.Error("completed request should be inactive again")
			}
		case 1:
			c.Recv(0, 4, nil)
			c.Send(0, 3, []byte{9, 9, 9, 9})
		}
	})
}

func TestPersistentProcNull(t *testing.T) {
	runNative(t, 1, func(c *Comm) {
		p := c.SendInit(ProcNull, 1, []byte{1})
		p.Start()
		p.Wait() // must complete immediately
		r := c.RecvInit(ProcNull, 1, make([]byte, 4))
		r.Start()
		st := r.Wait()
		if st.Source != ProcNull || st.Count != 0 {
			t.Errorf("ProcNull recv status = %+v", st)
		}
	})
}

func TestPersistentBadArgs(t *testing.T) {
	runNative(t, 1, func(c *Comm) {
		mustRaise(t, ErrRank, func() { c.SendInit(5, 1, nil) })  // rank out of range
		mustRaise(t, ErrTag, func() { c.RecvInit(0, -7, nil) })  // negative tag
		mustRaise(t, ErrRank, func() { c.RecvInit(-3, 1, nil) }) // not AnySource
	})
}
