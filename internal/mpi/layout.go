package mpi

import "fmt"

// Layout is the common interface of derived datatypes: a description of
// which bytes of an application buffer participate in a communication
// (MPI's type map). A Layout packs a (possibly non-contiguous) region into
// a contiguous wire buffer and scatters a wire buffer back. Vector and
// Indexed (typemap.go) satisfy it, as do Contiguous, Hindexed, Struct and
// Subarray below.
type Layout interface {
	// PackedSize is the wire size in bytes.
	PackedSize() int
	// Extent is the span in bytes from the first byte addressed to one
	// past the last (MPI_Type_get_extent).
	Extent() int
	// Pack gathers the layout from src into a fresh contiguous buffer.
	Pack(src []byte) []byte
	// Unpack scatters a contiguous wire buffer into the layout in dst.
	Unpack(wire, dst []byte)
}

// Extent implements Layout for Indexed (Vector already has one).
func (x Indexed) Extent() int {
	end := 0
	for _, b := range x.Blocks {
		if e := (b.Disp + b.Len) * x.Elem.Size; e > end {
			end = e
		}
	}
	return end
}

// Compile-time interface checks.
var (
	_ Layout = Vector{}
	_ Layout = Indexed{}
	_ Layout = Contiguous{}
	_ Layout = Hindexed{}
	_ Layout = Struct{}
	_ Layout = Subarray{}
)

// --- Contiguous -------------------------------------------------------------

// Contiguous is Count consecutive elements (MPI_Type_contiguous).
type Contiguous struct {
	Count int
	Elem  Datatype
}

// PackedSize implements Layout.
func (t Contiguous) PackedSize() int { return t.Count * t.Elem.Size }

// Extent implements Layout; for a contiguous type it equals PackedSize.
func (t Contiguous) Extent() int { return t.PackedSize() }

// Pack implements Layout (a plain copy).
func (t Contiguous) Pack(src []byte) []byte {
	return append([]byte(nil), src[:t.PackedSize()]...)
}

// Unpack implements Layout.
func (t Contiguous) Unpack(wire, dst []byte) {
	copy(dst[:t.PackedSize()], wire)
}

// --- Hindexed ---------------------------------------------------------------

// HBlock is one block of an Hindexed layout: a byte displacement and a byte
// length (MPI_Type_create_hindexed measures displacements in bytes, unlike
// Indexed's element units).
type HBlock struct {
	Disp int // byte offset into the application buffer
	Len  int // length in bytes
}

// Hindexed is a list of byte-granularity blocks at arbitrary byte
// displacements (MPI_Type_create_hindexed).
type Hindexed struct {
	Blocks []HBlock
}

// Validate rejects negative displacements or lengths.
func (h Hindexed) Validate() error {
	for _, b := range h.Blocks {
		if b.Disp < 0 || b.Len < 0 {
			return &Error{Class: ErrType, Msg: fmt.Sprintf("hindexed block %+v out of range", b)}
		}
	}
	return nil
}

// PackedSize implements Layout.
func (h Hindexed) PackedSize() int {
	n := 0
	for _, b := range h.Blocks {
		n += b.Len
	}
	return n
}

// Extent implements Layout.
func (h Hindexed) Extent() int {
	end := 0
	for _, b := range h.Blocks {
		if e := b.Disp + b.Len; e > end {
			end = e
		}
	}
	return end
}

// Pack implements Layout.
func (h Hindexed) Pack(src []byte) []byte {
	out := make([]byte, 0, h.PackedSize())
	for _, b := range h.Blocks {
		out = append(out, src[b.Disp:b.Disp+b.Len]...)
	}
	return out
}

// Unpack implements Layout.
func (h Hindexed) Unpack(wire, dst []byte) {
	pos := 0
	for _, b := range h.Blocks {
		copy(dst[b.Disp:b.Disp+b.Len], wire[pos:pos+b.Len])
		pos += b.Len
	}
}

// --- Struct -----------------------------------------------------------------

// StructField places a nested layout at a byte displacement within the
// enclosing buffer (MPI_Type_create_struct).
type StructField struct {
	Disp   int // byte offset of the field's base
	Layout Layout
}

// Struct composes heterogeneous nested layouts at byte displacements.
type Struct struct {
	Fields []StructField
}

// PackedSize implements Layout.
func (s Struct) PackedSize() int {
	n := 0
	for _, f := range s.Fields {
		n += f.Layout.PackedSize()
	}
	return n
}

// Extent implements Layout.
func (s Struct) Extent() int {
	end := 0
	for _, f := range s.Fields {
		if e := f.Disp + f.Layout.Extent(); e > end {
			end = e
		}
	}
	return end
}

// Pack implements Layout.
func (s Struct) Pack(src []byte) []byte {
	out := make([]byte, 0, s.PackedSize())
	for _, f := range s.Fields {
		out = append(out, f.Layout.Pack(src[f.Disp:])...)
	}
	return out
}

// Unpack implements Layout.
func (s Struct) Unpack(wire, dst []byte) {
	pos := 0
	for _, f := range s.Fields {
		n := f.Layout.PackedSize()
		f.Layout.Unpack(wire[pos:pos+n], dst[f.Disp:])
		pos += n
	}
}

// --- Subarray ---------------------------------------------------------------

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

// PackedSize implements Layout.
func (s Subarray) PackedSize() int {
	n := s.Elem.Size
	for _, d := range s.Subsizes {
		n *= d
	}
	return n
}

// Extent implements Layout: the full array span, as MPI defines for
// subarray types (so consecutive full arrays tile correctly).
func (s Subarray) Extent() int {
	n := s.Elem.Size
	for _, d := range s.Sizes {
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

// Pack implements Layout.
func (s Subarray) Pack(src []byte) []byte {
	out := make([]byte, 0, s.PackedSize())
	s.walk(func(off, n int) {
		out = append(out, src[off:off+n]...)
	})
	return out
}

// Unpack implements Layout.
func (s Subarray) Unpack(wire, dst []byte) {
	pos := 0
	s.walk(func(off, n int) {
		copy(dst[off:off+n], wire[pos:pos+n])
		pos += n
	})
}

// --- Incremental pack buffers (MPI_Pack / MPI_Unpack) ------------------------

// PackBuffer accumulates multiple layouts into one wire buffer, the way
// MPI_Pack appends at a caller-tracked position. Send the Bytes() and
// unpack on the receiving side with an UnpackBuffer in the same order.
type PackBuffer struct {
	buf []byte
}

// PackLayout appends the packed form of l over src.
func (p *PackBuffer) PackLayout(l Layout, src []byte) {
	p.buf = append(p.buf, l.Pack(src)...)
}

// PackBytes appends raw bytes (packing a Byte-typed contiguous region).
func (p *PackBuffer) PackBytes(b []byte) {
	p.buf = append(p.buf, b...)
}

// Bytes returns the accumulated wire buffer.
func (p *PackBuffer) Bytes() []byte { return p.buf }

// Len returns the current packed size (the MPI_Pack position).
func (p *PackBuffer) Len() int { return len(p.buf) }

// UnpackBuffer consumes a wire buffer in the order it was packed.
type UnpackBuffer struct {
	buf []byte
	pos int
}

// NewUnpackBuffer wraps a received wire buffer.
func NewUnpackBuffer(b []byte) *UnpackBuffer { return &UnpackBuffer{buf: b} }

// UnpackLayout scatters the next l.PackedSize() bytes into dst through l.
func (u *UnpackBuffer) UnpackLayout(l Layout, dst []byte) {
	n := l.PackedSize()
	l.Unpack(u.buf[u.pos:u.pos+n], dst)
	u.pos += n
}

// UnpackBytes copies the next len(dst) raw bytes into dst.
func (u *UnpackBuffer) UnpackBytes(dst []byte) {
	copy(dst, u.buf[u.pos:u.pos+len(dst)])
	u.pos += len(dst)
}

// Remaining reports how many bytes have not been consumed.
func (u *UnpackBuffer) Remaining() int { return len(u.buf) - u.pos }

// --- Typed send/recv over layouts -------------------------------------------

// SendLayout packs l over src and sends the wire buffer (MPI_Send with a
// derived datatype).
func (c *Comm) SendLayout(to Rank, tag int, l Layout, src []byte) {
	c.Send(to, tag, l.Pack(src))
}

// RecvLayout receives a packed payload and scatters it into dst through l.
func (c *Comm) RecvLayout(from Rank, tag int, l Layout, dst []byte) Status {
	wire := make([]byte, l.PackedSize())
	st := c.Recv(from, tag, wire)
	l.Unpack(wire, dst)
	return st
}

// IsendLayout starts a non-blocking layout send. The wire buffer is packed
// immediately, so src may be modified as soon as IsendLayout returns — the
// derived-datatype analogue of the eager copy.
func (c *Comm) IsendLayout(to Rank, tag int, l Layout, src []byte) *Request {
	return c.Isend(to, tag, l.Pack(src))
}

// IrecvLayout posts a non-blocking receive whose payload is scattered into
// dst through l when the request completes at the application level.
func (c *Comm) IrecvLayout(from Rank, tag int, l Layout, dst []byte) *Request {
	wire := make([]byte, l.PackedSize())
	r := c.Irecv(from, tag, wire)
	prev := r.OnFinish
	r.OnFinish = func(p *PReq) {
		if prev != nil {
			prev(p)
		}
		l.Unpack(wire, dst)
	}
	return r
}
