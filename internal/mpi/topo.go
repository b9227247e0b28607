package mpi

import "sort"

// Process topologies: cartesian grids (MPI_Cart_create and friends). A
// topology is a view over a communicator — it adds coordinate arithmetic
// and neighbour queries; all communication still routes through the
// underlying Comm, so the replication protocols cover topology traffic with
// no extra work.

// DimsCreate factors nnodes into ndims balanced dimensions, largest first
// (MPI_Dims_create with all dimensions free). Fixed dimensions can be
// supplied as non-zero entries in fixed; zero entries are computed.
func DimsCreate(nnodes, ndims int, fixed []int) []int {
	dims := make([]int, ndims)
	rem := nnodes
	free := 0
	for d := 0; d < ndims; d++ {
		if fixed != nil && fixed[d] > 0 {
			dims[d] = fixed[d]
			if rem%fixed[d] != 0 {
				panic(&Error{Class: ErrTopology, Msg: "DimsCreate: fixed dimensions do not divide node count"})
			}
			rem /= fixed[d]
		} else {
			free++
		}
	}
	if free == 0 {
		if rem != 1 {
			panic(&Error{Class: ErrTopology, Msg: "DimsCreate: fixed dimensions do not cover node count"})
		}
		return dims
	}
	// Split rem into `free` factors, as balanced as possible: repeatedly
	// peel the largest prime factor onto the currently smallest dimension.
	factors := primeFactors(rem)
	parts := make([]int, free)
	for i := range parts {
		parts[i] = 1
	}
	// factors come smallest-first; assign from the largest down.
	for i := len(factors) - 1; i >= 0; i-- {
		minIdx := 0
		for j := range parts {
			if parts[j] < parts[minIdx] {
				minIdx = j
			}
		}
		parts[minIdx] *= factors[i]
	}
	sort.Sort(sort.Reverse(sort.IntSlice(parts)))
	pi := 0
	for d := 0; d < ndims; d++ {
		if dims[d] == 0 {
			dims[d] = parts[pi]
			pi++
		}
	}
	return dims
}

// primeFactors returns n's prime factorization, smallest first.
func primeFactors(n int) []int {
	var out []int
	for f := 2; f*f <= n; f++ {
		for n%f == 0 {
			out = append(out, f)
			n /= f
		}
	}
	if n > 1 {
		out = append(out, n)
	}
	return out
}

// CartComm is a communicator with cartesian topology information
// (MPI_Cart_create). Ranks are laid out row-major: the last dimension
// varies fastest, as MPI specifies.
type CartComm struct {
	*Comm
	dims    []int
	periods []bool
}

// CartCreate builds a cartesian topology over this communicator
// (MPI_Cart_create). The product of dims must not exceed the communicator
// size; ranks beyond the product get nil, as MPI returns MPI_COMM_NULL.
// Collective over the communicator. The reorder flag of MPI is not
// meaningful here (all placements are equivalent in the simulator), so
// ranks keep their order.
func (c *Comm) CartCreate(dims []int, periods []bool) *CartComm {
	n := 1
	for _, d := range dims {
		if d <= 0 {
			raise(ErrTopology, "CartCreate: non-positive dimension %d", d)
		}
		n *= d
	}
	if n > c.Size() {
		raise(ErrTopology, "CartCreate: grid of %d exceeds communicator size %d", n, c.Size())
	}
	if len(periods) != len(dims) {
		raise(ErrTopology, "CartCreate: %d periods for %d dims", len(periods), len(dims))
	}
	color := 0
	if int(c.Rank()) >= n {
		color = Undefined
	}
	sub := c.Split(color, int(c.Rank()))
	if sub == nil {
		return nil
	}
	return &CartComm{
		Comm:    sub,
		dims:    append([]int(nil), dims...),
		periods: append([]bool(nil), periods...),
	}
}

// CartRank translates coordinates to a rank (MPI_Cart_rank). Coordinates
// outside a periodic dimension wrap; outside a non-periodic dimension they
// yield ProcNull.
func (t *CartComm) CartRank(coords []int) Rank {
	if len(coords) != len(t.dims) {
		raise(ErrTopology, "CartRank: %d coords for %d dims", len(coords), len(t.dims))
	}
	rank := 0
	for d, c := range coords {
		size := t.dims[d]
		if c < 0 || c >= size {
			if !t.periods[d] {
				return ProcNull
			}
			c = ((c % size) + size) % size
		}
		rank = rank*size + c
	}
	return Rank(rank)
}

// CartCoords translates a rank to coordinates (MPI_Cart_coords).
func (t *CartComm) CartCoords(r Rank) []int {
	if r < 0 || int(r) >= t.Size() {
		raise(ErrRank, "CartCoords: rank %d outside topology of size %d", r, t.Size())
	}
	coords := make([]int, len(t.dims))
	rem := int(r)
	for d := len(t.dims) - 1; d >= 0; d-- {
		coords[d] = rem % t.dims[d]
		rem /= t.dims[d]
	}
	return coords
}

// Coords returns this process's own coordinates.
func (t *CartComm) Coords() []int { return t.CartCoords(t.Rank()) }

// CartShift returns the source and destination ranks for a shift of disp
// along dimension dim (MPI_Cart_shift): src is the rank that would send to
// this process, dst the rank this process would send to. Off-grid
// neighbours on non-periodic dimensions are ProcNull, so the result can be
// passed directly to Sendrecv.
func (t *CartComm) CartShift(dim, disp int) (src, dst Rank) {
	if dim < 0 || dim >= len(t.dims) {
		raise(ErrTopology, "CartShift: dimension %d outside %d-dim topology", dim, len(t.dims))
	}
	coords := t.Coords()
	up := append([]int(nil), coords...)
	down := append([]int(nil), coords...)
	up[dim] += disp
	down[dim] -= disp
	return t.CartRank(down), t.CartRank(up)
}
