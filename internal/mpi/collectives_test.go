package mpi

import (
	"bytes"
	"fmt"
	"testing"
)

// collSizes are the communicator sizes collectives are exercised at —
// powers of two, odd, prime, and 1.
var collSizes = []int{1, 2, 3, 4, 5, 7, 8}

func forSizes(t *testing.T, fn func(t *testing.T, n int)) {
	for _, n := range collSizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) { fn(t, n) })
	}
}

func TestBarrierCompletes(t *testing.T) {
	forSizes(t, func(t *testing.T, n int) {
		runNative(t, n, func(c *Comm) {
			for i := 0; i < 3; i++ {
				c.Barrier()
			}
		})
	})
}

func TestBcastAllRoots(t *testing.T) {
	forSizes(t, func(t *testing.T, n int) {
		runNative(t, n, func(c *Comm) {
			for root := Rank(0); root < Rank(n); root++ {
				data := make([]byte, 32)
				if c.Rank() == root {
					for i := range data {
						data[i] = byte(int(root)*31 + i)
					}
				}
				c.Bcast(root, data)
				for i := range data {
					if data[i] != byte(int(root)*31+i) {
						t.Errorf("root %d: byte %d = %d", root, i, data[i])
						return
					}
				}
			}
		})
	})
}

func TestAllreduceOps(t *testing.T) {
	forSizes(t, func(t *testing.T, n int) {
		runNative(t, n, func(c *Comm) {
			r := float64(c.Rank())
			if got := c.AllreduceFloat64(r+1, OpSum); got != float64(n*(n+1))/2 {
				t.Errorf("sum: %v", got)
			}
			if got := c.AllreduceFloat64(r, OpMax); got != float64(n-1) {
				t.Errorf("max: %v", got)
			}
			if got := c.AllreduceFloat64(r, OpMin); got != 0 {
				t.Errorf("min: %v", got)
			}
			if got := c.AllreduceFloat64(r+1, OpProd); got != factorial(n) {
				t.Errorf("prod: %v", got)
			}
		})
	})
}

func factorial(n int) float64 {
	f := 1.0
	for i := 2; i <= n; i++ {
		f *= float64(i)
	}
	return f
}

func TestAllreduceVector(t *testing.T) {
	runNative(t, 6, func(c *Comm) {
		vec := make([]float64, 100)
		for i := range vec {
			vec[i] = float64(int(c.Rank()) * i)
		}
		got := BytesFloat64(c.Allreduce(Float64Bytes(vec), Float64, OpSum))
		for i := range got {
			want := float64(i) * 15 // sum of ranks 0..5
			if got[i] != want {
				t.Errorf("elem %d: %v want %v", i, got[i], want)
				return
			}
		}
	})
}

func TestAllreduceInt64Exact(t *testing.T) {
	// Large int64s that would lose precision through float64.
	runNative(t, 3, func(c *Comm) {
		x := int64(1<<53 + 1 + int64(c.Rank()))
		got := BytesInt64(c.Allreduce(Int64Bytes([]int64{x}), Int64T, OpBor))[0]
		want := (int64(1<<53+1) | int64(1<<53+2) | int64(1<<53+3))
		if got != want {
			t.Errorf("bor: %d want %d", got, want)
		}
	})
}

func TestAllgather(t *testing.T) {
	forSizes(t, func(t *testing.T, n int) {
		runNative(t, n, func(c *Comm) {
			mine := []byte{byte(c.Rank() + 1)}
			all := c.Allgather(mine)
			if len(all) != n {
				t.Fatalf("len %d", len(all))
			}
			for r := 0; r < n; r++ {
				if all[r] != byte(r+1) {
					t.Errorf("block %d = %d", r, all[r])
				}
			}
		})
	})
}

func TestAlltoall(t *testing.T) {
	forSizes(t, func(t *testing.T, n int) {
		runNative(t, n, func(c *Comm) {
			// Block j from rank i carries value i*16+j.
			data := make([]byte, n)
			for j := 0; j < n; j++ {
				data[j] = byte(int(c.Rank())*16 + j)
			}
			out := c.Alltoall(data, 1)
			for i := 0; i < n; i++ {
				want := byte(i*16 + int(c.Rank()))
				if out[i] != want {
					t.Errorf("from %d: got %d want %d", i, out[i], want)
				}
			}
		})
	})
}

func TestAlltoallv(t *testing.T) {
	runNative(t, 3, func(c *Comm) {
		n := 3
		r := int(c.Rank())
		// Rank r sends j+1 bytes of value r to rank j.
		sendCounts := []int{1, 2, 3}
		recvCounts := []int{r + 1, r + 1, r + 1}
		var data []byte
		for j := 0; j < n; j++ {
			data = append(data, bytes.Repeat([]byte{byte(r)}, sendCounts[j])...)
		}
		out := c.Alltoallv(data, sendCounts, recvCounts)
		if len(out) != n*(r+1) {
			t.Fatalf("len %d", len(out))
		}
		for j := 0; j < n; j++ {
			for k := 0; k < r+1; k++ {
				if out[j*(r+1)+k] != byte(j) {
					t.Errorf("block %d byte %d = %d", j, k, out[j*(r+1)+k])
				}
			}
		}
	})
}

func TestConcurrentCollectivesDoNotCrossMatch(t *testing.T) {
	// Back-to-back different collectives with ranks entering at skewed
	// times: sequence-derived tags must isolate them.
	runNative(t, 4, func(c *Comm) {
		for iter := 0; iter < 10; iter++ {
			x := c.AllreduceFloat64(float64(c.Rank()), OpSum)
			if x != 6 {
				t.Errorf("iter %d: sum %v", iter, x)
			}
			data := []byte{byte(iter)}
			c.Bcast(0, data)
			if data[0] != byte(iter) {
				t.Errorf("iter %d: bcast %d", iter, data[0])
			}
			all := c.Allgather([]byte{byte(c.Rank())})
			for r := 0; r < 4; r++ {
				if all[r] != byte(r) {
					t.Errorf("iter %d: allgather %v", iter, all)
				}
			}
		}
	})
}
