package mpi

import "testing"

func TestProbeBlocking(t *testing.T) {
	runNative(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			st := c.Probe(1, 5)
			if st.Source != 1 || st.Tag != 5 || st.Count != 3 {
				t.Errorf("probe status %+v", st)
			}
			// The message is still there: receive it.
			buf := make([]byte, 3)
			c.Recv(1, 5, buf)
			if string(buf) != "abc" {
				t.Errorf("payload %q", buf)
			}
		} else {
			c.Send(0, 5, []byte("abc"))
		}
	})
}

func TestIprobeNonBlocking(t *testing.T) {
	runNative(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			if _, ok := c.Iprobe(1, 9); ok {
				t.Error("nothing sent yet, Iprobe should fail")
			}
			c.Send(1, 1, []byte{1}) // release peer
			for {
				if st, ok := c.Iprobe(AnySource, AnyTag); ok {
					if st.Tag != 9 || st.Source != 1 {
						t.Errorf("iprobe %+v", st)
					}
					break
				}
			}
			c.Recv(1, 9, make([]byte, 4))
		} else {
			c.Recv(0, 1, make([]byte, 1))
			c.Send(0, 9, []byte("done"))
		}
	})
}

func TestProbeRendezvousEnvelope(t *testing.T) {
	// Probing a rendezvous message must report the full payload length
	// from the RTS envelope.
	runNative(t, 2, func(c *Comm) {
		n := DefaultEagerLimit * 2
		if c.Rank() == 0 {
			r := c.Isend(1, 3, make([]byte, n))
			c.Send(1, 4, nil) // eager marker so the peer knows RTS is queued
			r.Wait()
		} else {
			c.Recv(0, 4, nil)
			st := c.Probe(0, 3)
			if st.Count != n {
				t.Errorf("probe count %d want %d", st.Count, n)
			}
			c.Recv(0, 3, make([]byte, n))
		}
	})
}
