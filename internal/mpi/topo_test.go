package mpi

import (
	"testing"
	"testing/quick"
)

func TestDimsCreateBalanced(t *testing.T) {
	cases := []struct {
		nnodes, ndims int
		want          []int
	}{
		{6, 2, []int{3, 2}},
		{12, 2, []int{4, 3}},
		{12, 3, []int{3, 2, 2}},
		{16, 2, []int{4, 4}},
		{64, 3, []int{4, 4, 4}},
		{7, 2, []int{7, 1}},
		{1, 3, []int{1, 1, 1}},
		{256, 2, []int{16, 16}},
	}
	for _, tc := range cases {
		got := DimsCreate(tc.nnodes, tc.ndims, nil)
		if len(got) != len(tc.want) {
			t.Errorf("DimsCreate(%d,%d) = %v", tc.nnodes, tc.ndims, got)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("DimsCreate(%d,%d) = %v, want %v", tc.nnodes, tc.ndims, got, tc.want)
				break
			}
		}
	}
}

func TestDimsCreateFixed(t *testing.T) {
	got := DimsCreate(24, 3, []int{0, 2, 0})
	if got[1] != 2 {
		t.Fatalf("fixed dimension not respected: %v", got)
	}
	prod := got[0] * got[1] * got[2]
	if prod != 24 {
		t.Fatalf("product %d != 24: %v", prod, got)
	}
}

func TestDimsCreateQuick(t *testing.T) {
	// Properties: the product always equals nnodes; free dims descend.
	prop := func(n, d uint8) bool {
		nnodes := int(n%64) + 1
		ndims := int(d%3) + 1
		dims := DimsCreate(nnodes, ndims, nil)
		prod := 1
		for _, x := range dims {
			if x <= 0 {
				return false
			}
			prod *= x
		}
		for i := 1; i < len(dims); i++ {
			if dims[i] > dims[i-1] {
				return false
			}
		}
		return prod == nnodes
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCartRankCoordsRoundtrip(t *testing.T) {
	runNative(t, 6, func(c *Comm) {
		cart := c.CartCreate([]int{3, 2}, []bool{false, true})
		if cart == nil {
			t.Fatalf("rank %d: unexpectedly outside the grid", c.Rank())
		}
		if n := len(cart.Coords()); n != 2 {
			t.Errorf("%d coordinates, want 2", n)
		}
		for r := 0; r < cart.Size(); r++ {
			coords := cart.CartCoords(Rank(r))
			if back := cart.CartRank(coords); back != Rank(r) {
				t.Errorf("rank %d -> %v -> %d", r, coords, back)
			}
		}
		// Row-major: rank = row*2 + col.
		coords := cart.Coords()
		if want := Rank(coords[0]*2 + coords[1]); cart.Rank() != want {
			t.Errorf("row-major violated: rank %d at %v", cart.Rank(), coords)
		}
	})
}

func TestCartShift(t *testing.T) {
	runNative(t, 6, func(c *Comm) {
		cart := c.CartCreate([]int{3, 2}, []bool{false, true})
		coords := cart.Coords()

		// Dim 0 is non-periodic: the top row has no up-source, the bottom
		// row no down-dest.
		src, dst := cart.CartShift(0, 1)
		if coords[0] == 0 && src != ProcNull {
			t.Errorf("row 0: src = %d, want ProcNull", src)
		}
		if coords[0] == 2 && dst != ProcNull {
			t.Errorf("row 2: dst = %d, want ProcNull", dst)
		}
		if coords[0] == 1 {
			if want := cart.CartRank([]int{0, coords[1]}); src != want {
				t.Errorf("row 1: src = %d, want %d", src, want)
			}
			if want := cart.CartRank([]int{2, coords[1]}); dst != want {
				t.Errorf("row 1: dst = %d, want %d", dst, want)
			}
		}

		// Dim 1 is periodic: everyone has both neighbours and a shift by
		// the full dimension returns self.
		src, dst = cart.CartShift(1, 1)
		if src == ProcNull || dst == ProcNull {
			t.Error("periodic dim returned ProcNull")
		}
		src2, dst2 := cart.CartShift(1, 2)
		if src2 != cart.Rank() || dst2 != cart.Rank() {
			t.Errorf("full wrap: (%d,%d), want self %d", src2, dst2, cart.Rank())
		}
	})
}

func TestCartHaloExchange(t *testing.T) {
	// A 1D non-periodic chain using CartShift + Sendrecv with ProcNull at
	// the ends — the standard stencil boilerplate must work verbatim.
	const n = 5
	runNative(t, n, func(c *Comm) {
		cart := c.CartCreate([]int{n}, []bool{false})
		src, dst := cart.CartShift(0, 1)
		mine := []byte{byte(cart.Rank() + 1)}
		halo := make([]byte, 1)
		st := cart.Sendrecv(dst, 2, mine, src, 2, halo)
		if cart.Coords()[0] == 0 {
			if st.Source != ProcNull || st.Count != 0 {
				t.Errorf("edge rank got %+v", st)
			}
		} else {
			if want := byte(cart.Rank()); halo[0] != want {
				t.Errorf("halo = %d, want %d", halo[0], want)
			}
		}
	})
}

func TestCartCreateExcess(t *testing.T) {
	// A 2x2 grid over 6 processes: ranks 4 and 5 get nil.
	runNative(t, 6, func(c *Comm) {
		cart := c.CartCreate([]int{2, 2}, []bool{false, false})
		if int(c.Rank()) >= 4 {
			if cart != nil {
				t.Errorf("rank %d should be outside the grid", c.Rank())
			}
			return
		}
		if cart == nil {
			t.Fatalf("rank %d should be in the grid", c.Rank())
		}
		if cart.Size() != 4 {
			t.Errorf("grid size = %d", cart.Size())
		}
		// The grid must be fully functional for members.
		sum := BytesInt64(cart.Allreduce(Int64Bytes([]int64{int64(cart.Rank())}), Int64T, OpSum))[0]
		if sum != 0+1+2+3 {
			t.Errorf("grid allreduce = %d", sum)
		}
	})
}

func TestCartErrors(t *testing.T) {
	runNative(t, 4, func(c *Comm) {
		mustRaise(t, ErrTopology, func() { c.CartCreate([]int{5, 5}, []bool{false, false}) }) // oversized grid
		mustRaise(t, ErrTopology, func() { c.CartCreate([]int{4}, []bool{false, false}) })    // mismatched periods
		mustRaise(t, ErrTopology, func() { c.CartCreate([]int{0, 4}, []bool{false, false}) }) // empty dimension
	})
}
