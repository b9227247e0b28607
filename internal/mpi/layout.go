package mpi

import "fmt"

// Subarray selects an n-dimensional rectangular region of a larger
// row-major n-dimensional array (MPI_Type_create_subarray with
// MPI_ORDER_C). It is the natural datatype for halo faces of block-
// decomposed grids: a 3D face is a Subarray with one Subsize equal to the
// halo width.
type Subarray struct {
	Sizes    []int // full array dimensions, outermost first
	Subsizes []int // selected region dimensions
	Starts   []int // region origin
	Elem     Datatype
}

// Validate checks the region lies inside the array.
func (s Subarray) Validate() error {
	if len(s.Sizes) == 0 || len(s.Subsizes) != len(s.Sizes) || len(s.Starts) != len(s.Sizes) {
		return &Error{Class: ErrType, Msg: "subarray: dimension count mismatch"}
	}
	for d := range s.Sizes {
		if s.Sizes[d] <= 0 || s.Subsizes[d] <= 0 || s.Starts[d] < 0 ||
			s.Starts[d]+s.Subsizes[d] > s.Sizes[d] {
			return &Error{Class: ErrType, Msg: fmt.Sprintf(
				"subarray: dim %d region [%d,%d) outside array of size %d",
				d, s.Starts[d], s.Starts[d]+s.Subsizes[d], s.Sizes[d])}
		}
	}
	return nil
}

// PackedSize is the wire size in bytes.
func (s Subarray) PackedSize() int {
	n := s.Elem.Size
	for _, d := range s.Subsizes {
		n *= d
	}
	return n
}

// strides returns the row-major byte stride of each dimension.
func (s Subarray) strides() []int {
	nd := len(s.Sizes)
	st := make([]int, nd)
	acc := s.Elem.Size
	for d := nd - 1; d >= 0; d-- {
		st[d] = acc
		acc *= s.Sizes[d]
	}
	return st
}

// walk visits each contiguous run of the region: the innermost dimension
// is contiguous, so a run is Subsizes[last] elements.
func (s Subarray) walk(visit func(srcOff, n int)) {
	nd := len(s.Sizes)
	st := s.strides()
	runLen := s.Subsizes[nd-1] * s.Elem.Size
	idx := make([]int, nd-1) // indices over the outer dimensions
	for {
		off := s.Starts[nd-1] * st[nd-1]
		for d := 0; d < nd-1; d++ {
			off += (s.Starts[d] + idx[d]) * st[d]
		}
		visit(off, runLen)
		// Odometer increment over the outer dimensions.
		d := nd - 2
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < s.Subsizes[d] {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			return
		}
	}
}

// Pack gathers the region from src into a fresh contiguous buffer.
func (s Subarray) Pack(src []byte) []byte {
	out := make([]byte, 0, s.PackedSize())
	s.walk(func(off, n int) {
		out = append(out, src[off:off+n]...)
	})
	return out
}

// Unpack scatters a contiguous wire buffer into the region in dst.
func (s Subarray) Unpack(wire, dst []byte) {
	pos := 0
	s.walk(func(off, n int) {
		copy(dst[off:off+n], wire[pos:pos+n])
		pos += n
	})
}

// IsendLayout starts a non-blocking send of the region s selects in src
// (MPI_Isend with a subarray datatype). The wire buffer is packed
// immediately, so src may be modified as soon as IsendLayout returns — the
// derived-datatype analogue of the eager copy. A region that does not lie
// inside its array is an MPI_ERR_TYPE error, raised like every other
// argument error: packing it would silently send bytes of the next row.
func (c *Comm) IsendLayout(to Rank, tag int, s Subarray, src []byte) *Request {
	if err := s.Validate(); err != nil {
		panic(err.Error())
	}
	return c.Isend(to, tag, s.Pack(src))
}
