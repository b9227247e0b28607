package mpi

import (
	"bytes"
	"testing"
)

func TestIbarrier(t *testing.T) {
	forSizes(t, func(t *testing.T, n int) {
		runNative(t, n, func(c *Comm) {
			r := c.Ibarrier()
			r.Wait()
			// And again, twice outstanding work in sequence.
			c.Ibarrier().Wait()
		})
	})
}

func TestIbcast(t *testing.T) {
	forSizes(t, func(t *testing.T, n int) {
		runNative(t, n, func(c *Comm) {
			data := make([]byte, 16)
			if c.Rank() == 0 {
				for i := range data {
					data[i] = byte(i * 3)
				}
			}
			c.Ibcast(0, data).Wait()
			for i := range data {
				if data[i] != byte(i*3) {
					t.Errorf("byte %d = %d", i, data[i])
					return
				}
			}
		})
	})
}

func TestIallreduce(t *testing.T) {
	forSizes(t, func(t *testing.T, n int) {
		runNative(t, n, func(c *Comm) {
			r, out := c.Iallreduce(Float64Bytes([]float64{float64(c.Rank()) + 1}), Float64, OpSum)
			r.Wait()
			got := BytesFloat64(out)[0]
			if want := float64(n*(n+1)) / 2; got != want {
				t.Errorf("got %v want %v", got, want)
			}
		})
	})
}

func TestIallgather(t *testing.T) {
	forSizes(t, func(t *testing.T, n int) {
		runNative(t, n, func(c *Comm) {
			r, out := c.Iallgather([]byte{byte(c.Rank() + 1)})
			r.Wait()
			for i := 0; i < n; i++ {
				if out[i] != byte(i+1) {
					t.Errorf("block %d = %d", i, out[i])
				}
			}
		})
	})
}

func TestNBCOverlapsComputeAndP2P(t *testing.T) {
	// The point of non-blocking collectives: post, do unrelated work
	// (including point-to-point traffic), then complete.
	runNative(t, 4, func(c *Comm) {
		r, out := c.Iallreduce(Float64Bytes([]float64{1}), Float64, OpSum)
		// Unrelated p2p while the collective is outstanding.
		other := (c.Rank() + 1) % 4
		prev := (c.Rank() + 3) % 4
		rr := c.Irecv(prev, 77, make([]byte, 4))
		c.Send(other, 77, []byte{1, 2, 3, 4})
		rr.Wait()
		r.Wait()
		if got := BytesFloat64(out)[0]; got != 4 {
			t.Errorf("allreduce %v", got)
		}
	})
}

func TestTwoOutstandingNBCs(t *testing.T) {
	runNative(t, 4, func(c *Comm) {
		r1, o1 := c.Iallreduce(Float64Bytes([]float64{1}), Float64, OpSum)
		r2, o2 := c.Iallgather([]byte{byte(c.Rank())})
		// Complete in reverse posting order.
		r2.Wait()
		r1.Wait()
		if BytesFloat64(o1)[0] != 4 {
			t.Errorf("allreduce %v", BytesFloat64(o1))
		}
		if !bytes.Equal(o2, []byte{0, 1, 2, 3}) {
			t.Errorf("allgather %v", o2)
		}
	})
}

func TestNBCOverlap(t *testing.T) {
	// Two outstanding non-blocking collectives plus point-to-point traffic
	// must progress without interference: the tag-isolation property.
	const n = 4
	runNative(t, n, func(c *Comm) {
		me := int(c.Rank())
		g1, out1 := c.Iallgather([]byte{byte(me)})
		bcast := make([]byte, 3)
		if me == 0 {
			copy(bcast, []byte{5, 6, 7})
		}
		g2 := c.Ibcast(0, bcast)
		// P2P ring while the collectives are in flight.
		right := Rank((me + 1) % n)
		left := Rank((me - 1 + n) % n)
		p := make([]byte, 1)
		st := c.Sendrecv(right, 77, []byte{byte(me)}, left, 77, p)
		if st.Count != 1 || p[0] != byte((me-1+n)%n) {
			t.Errorf("p2p ring: %+v %v", st, p)
		}
		g2.Wait()
		g1.Wait()
		if !bytes.Equal(bcast, []byte{5, 6, 7}) {
			t.Errorf("bcast = %v", bcast)
		}
		for r := 0; r < n; r++ {
			if out1[r] != byte(r) {
				t.Errorf("allgather block %d = %d", r, out1[r])
			}
		}
	})
}

func TestNBCTestPolling(t *testing.T) {
	runNative(t, 2, func(c *Comm) {
		r := c.Ibarrier()
		for {
			if _, ok := r.Test(); ok {
				break
			}
		}
	})
}
