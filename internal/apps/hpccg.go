package apps

import (
	"repro/internal/mpi"
)

// HPCCGParams sizes the HPCCG proxy (the Mantevo mini-application solving
// a conjugate gradient on a 3D "chimney" domain; the paper runs
// 128x128x64 per rank).
type HPCCGParams struct {
	// NX, NY are the horizontal dimensions of the local slab; NZ its
	// height. Ranks stack along z, so halo faces are NX*NY points.
	NX, NY, NZ int
	// Iters is the CG iteration count.
	Iters int
	// Work scales the compute.
	Work int
}

// HPCCG is the HPCCG proxy: CG on a 27-point-style 3D operator with the
// domain decomposed into z-slabs. Its halo exchange posts receives with
// MPI_ANY_SOURCE — the property for which the paper selects it (Table 2):
// leader-based protocols pay an agreement round on every such reception,
// SDR-MPI pays nothing. Direction is disambiguated by tag, so arrival
// order cannot influence the numerical state (send-determinism holds).
func HPCCG(c *mpi.Comm, p HPCCGParams) Result {
	size := c.Size()
	rank := int(c.Rank())
	plane := p.NX * p.NY
	vol := plane * p.NZ

	x := make([]float64, vol)
	r := make([]float64, vol)
	pv := make([]float64, vol)
	ap := make([]float64, vol)
	haloLo := make([]float64, plane)
	haloHi := make([]float64, plane)

	fill(r, rank, 29)
	copy(pv, r)
	rr := dot(c, r, r)
	res0 := rr

	loBuf := make([]byte, plane*8)
	hiBuf := make([]byte, plane*8)
	// One send buffer serves both faces: Send is blocking, so the buffer is
	// free again when it returns.
	sendBuf := make([]byte, plane*8)
	reqs := make([]*mpi.Request, 0, 2)

	iters := 0
	for it := 0; it < p.Iters; it++ {
		// Halo exchange with ANY_SOURCE receptions (direction by tag).
		reqs = reqs[:0]
		if rank > 0 {
			reqs = append(reqs, c.Irecv(mpi.AnySource, tagDown, loBuf))
		}
		if rank < size-1 {
			reqs = append(reqs, c.Irecv(mpi.AnySource, tagUp, hiBuf))
		}
		if rank > 0 {
			c.Send(mpi.Rank(rank-1), tagUp, mpi.PutFloat64s(sendBuf, pv[:plane]))
		}
		if rank < size-1 {
			c.Send(mpi.Rank(rank+1), tagDown, mpi.PutFloat64s(sendBuf, pv[vol-plane:]))
		}
		mpi.Waitall(reqs...)
		if rank > 0 {
			mpi.GetFloat64s(haloLo, loBuf)
		} else {
			zero(haloLo)
		}
		if rank < size-1 {
			mpi.GetFloat64s(haloHi, hiBuf)
		} else {
			zero(haloHi)
		}

		// 7-point operator with the exchanged halos.
		matvec3D(pv, ap, haloLo, haloHi, p.NX, p.NY, p.NZ)
		compute(ap, p.Work)

		pap := dot(c, pv, ap)
		if pap == 0 {
			break
		}
		alpha := rr / pap
		for i := range x {
			x[i] += alpha * pv[i]
			r[i] -= alpha * ap[i]
		}
		rrNew := dot(c, r, r)
		beta := rrNew / rr
		rr = rrNew
		for i := range pv {
			pv[i] = r[i] + beta*pv[i]
		}
		iters++
	}

	sum := c.AllreduceFloat64(localSum(x), mpi.OpSum)
	return Result{Checksum: sum, Residual: rr / res0, Iterations: iters}
}

// matvec3D applies a 7-point Laplacian on the local slab, closing the z
// boundaries with the neighbour halos.
func matvec3D(v, out, haloLo, haloHi []float64, nx, ny, nz int) {
	plane := nx * ny
	at := func(i, j, k int) float64 {
		switch {
		case k < 0:
			return haloLo[j*nx+i]
		case k >= nz:
			return haloHi[j*nx+i]
		default:
			return v[k*plane+j*nx+i]
		}
	}
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				c := v[k*plane+j*nx+i]
				s := 6.5 * c
				if i > 0 {
					s -= v[k*plane+j*nx+i-1]
				}
				if i < nx-1 {
					s -= v[k*plane+j*nx+i+1]
				}
				if j > 0 {
					s -= v[k*plane+(j-1)*nx+i]
				}
				if j < ny-1 {
					s -= v[k*plane+(j+1)*nx+i]
				}
				s -= at(i, j, k-1)
				s -= at(i, j, k+1)
				out[k*plane+j*nx+i] = s
			}
		}
	}
}

func zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}
