package mpi

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fillPattern writes a deterministic non-repeating byte pattern.
func fillPattern(b []byte, seed byte) {
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
}

func TestSubarray2DFace(t *testing.T) {
	// An 8x6 float64 grid; select the rightmost 2 columns (a halo face).
	l := Subarray{
		Sizes:    []int{8, 6},
		Subsizes: []int{8, 2},
		Starts:   []int{0, 4},
		Elem:     Float64,
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := l.PackedSize(), 8*2*8; got != want {
		t.Fatalf("PackedSize = %d, want %d", got, want)
	}
	src := make([]byte, 8*6*8)
	fillPattern(src, 5)
	wire := l.Pack(src)
	dst := make([]byte, len(src))
	l.Unpack(wire, dst)
	for row := 0; row < 8; row++ {
		for col := 0; col < 6; col++ {
			off := (row*6 + col) * 8
			inRegion := col >= 4
			for k := 0; k < 8; k++ {
				if inRegion && dst[off+k] != src[off+k] {
					t.Fatalf("region byte (%d,%d)+%d not restored", row, col, k)
				}
				if !inRegion && dst[off+k] != 0 {
					t.Fatalf("unpack wrote outside region at (%d,%d)", row, col)
				}
			}
		}
	}
}

func TestSubarray3D(t *testing.T) {
	// 4x5x6 byte array, interior 2x3x2 region at (1,1,2).
	l := Subarray{
		Sizes:    []int{4, 5, 6},
		Subsizes: []int{2, 3, 2},
		Starts:   []int{1, 1, 2},
		Elem:     Byte,
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	src := make([]byte, 4*5*6)
	fillPattern(src, 11)
	wire := l.Pack(src)
	if got, want := len(wire), 2*3*2; got != want {
		t.Fatalf("packed %d bytes, want %d", got, want)
	}
	dst := make([]byte, len(src))
	l.Unpack(wire, dst)
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			for k := 0; k < 6; k++ {
				off := (i*5+j)*6 + k
				in := i >= 1 && i < 3 && j >= 1 && j < 4 && k >= 2 && k < 4
				switch {
				case in && dst[off] != src[off]:
					t.Fatalf("(%d,%d,%d) not restored", i, j, k)
				case !in && dst[off] != 0:
					t.Fatalf("leak outside region at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

func TestSubarrayValidate(t *testing.T) {
	cases := []Subarray{
		{Sizes: []int{4}, Subsizes: []int{5}, Starts: []int{0}, Elem: Byte},
		{Sizes: []int{4}, Subsizes: []int{2}, Starts: []int{3}, Elem: Byte},
		{Sizes: []int{4, 4}, Subsizes: []int{2}, Starts: []int{0}, Elem: Byte},
		{Sizes: []int{0}, Subsizes: []int{0}, Starts: []int{0}, Elem: Byte},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid subarray accepted: %+v", i, s)
		}
	}
}

// TestSubarrayQuick property: pack followed by unpack into a zeroed buffer
// restores exactly the selected region and nothing else, for random
// regions of random 3D arrays.
func TestSubarrayQuick(t *testing.T) {
	prop := func(a, b, c, seed uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		sizes := []int{int(a%5) + 1, int(b%5) + 1, int(c%5) + 1}
		sub := make([]int, 3)
		starts := make([]int, 3)
		for d := 0; d < 3; d++ {
			sub[d] = rng.Intn(sizes[d]) + 1
			starts[d] = rng.Intn(sizes[d] - sub[d] + 1)
		}
		l := Subarray{Sizes: sizes, Subsizes: sub, Starts: starts, Elem: Byte}
		if err := l.Validate(); err != nil {
			return false
		}
		src := make([]byte, sizes[0]*sizes[1]*sizes[2])
		for i := range src {
			src[i] = byte(rng.Intn(255)) + 1 // never zero
		}
		dst := make([]byte, len(src))
		l.Unpack(l.Pack(src), dst)
		for i := 0; i < sizes[0]; i++ {
			for j := 0; j < sizes[1]; j++ {
				for k := 0; k < sizes[2]; k++ {
					off := (i*sizes[1]+j)*sizes[2] + k
					in := i >= starts[0] && i < starts[0]+sub[0] &&
						j >= starts[1] && j < starts[1]+sub[1] &&
						k >= starts[2] && k < starts[2]+sub[2]
					if in && dst[off] != src[off] {
						return false
					}
					if !in && dst[off] != 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvLayout(t *testing.T) {
	// Rank 0 sends the rightmost column of a 6x8 byte grid to rank 1,
	// which scatters it into the leftmost column of its own grid — a halo
	// exchange through derived datatypes.
	runNative(t, 2, func(c *Comm) {
		const rows, cols = 6, 8
		right := Subarray{Sizes: []int{rows, cols}, Subsizes: []int{rows, 1}, Starts: []int{0, cols - 1}, Elem: Byte}
		left := Subarray{Sizes: []int{rows, cols}, Subsizes: []int{rows, 1}, Starts: []int{0, 0}, Elem: Byte}
		grid := make([]byte, rows*cols)
		switch c.Rank() {
		case 0:
			fillPattern(grid, 21)
			r := c.IsendLayout(1, 7, right, grid)
			// The wire copy is taken eagerly: clobbering grid now is legal.
			clear(grid)
			r.Wait()
		case 1:
			wire := make([]byte, left.PackedSize())
			st := c.Recv(0, 7, wire)
			left.Unpack(wire, grid)
			if st.Count != right.PackedSize() {
				t.Errorf("received %d bytes, want %d", st.Count, right.PackedSize())
			}
			for r := 0; r < rows; r++ {
				want := byte((r*cols+cols-1))*7 + 21
				if grid[r*cols] != want {
					t.Errorf("row %d: halo byte = %d, want %d", r, grid[r*cols], want)
				}
			}
		}
	})
}

func TestIsendLayoutValidates(t *testing.T) {
	// A one-row region over columns [2,5) of a 4x4 array runs past the
	// row's edge: packed unchecked, it sends bytes 2, 3 and 4 — the next
	// row's first byte among them. The send must raise MPI_ERR_TYPE.
	runNative(t, 2, func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		bad := Subarray{Sizes: []int{4, 4}, Subsizes: []int{1, 3}, Starts: []int{0, 2}, Elem: Byte}
		src := make([]byte, 16)
		fillPattern(src, 0)
		mustRaise(t, ErrType, func() { c.IsendLayout(1, 1, bad, src) })
	})
}
