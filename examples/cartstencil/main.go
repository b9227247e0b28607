// Cartstencil: a 2D heat-diffusion stencil written the way production MPI
// codes are written — a cartesian process topology (MPI_Cart_create), halo
// faces described by subarray datatypes (MPI_Type_create_subarray), and
// persistent halo-exchange requests (MPI_Send_init / MPI_Startall) hoisted
// out of the time loop — all running under SDR-MPI dual replication with a
// replica crash injected mid-run. The point of the example: none of this
// API surface needs replication-aware code; the protocol sits below the
// point-to-point layer and covers everything. The example checks itself:
// it exits non-zero unless every surviving replica's result equals a
// fault-free native run's, bit for bit.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

const (
	gridN = 24 // local tile edge (without halo)
	steps = 40
)

func main() {
	// The fault-free native run is the reference every replica must match.
	ref := cluster.Run(cluster.Config{Ranks: 6, Protocol: cluster.Native, Timeout: 60 * time.Second}, stencil)
	if err := ref.FirstError(); err != nil {
		log.Fatal(err)
	}
	report := cluster.Run(cluster.Config{
		Ranks:    6,
		Protocol: cluster.SDR,
		Timeout:  60 * time.Second,
		// Kill one replica a third of the way in: the run must finish
		// with identical results anyway.
		Failures: []cluster.FailureEvent{{Rank: 2, Rep: 1, AtStep: steps / 3}},
	}, stencil)
	if err := report.FirstError(); err != nil {
		log.Fatal(err)
	}
	wrong := 0
	for _, p := range report.Procs {
		if p.Crashed {
			fmt.Printf("rank %d replica %d: crashed (injected)\n", p.Rank, p.Rep)
			continue
		}
		want := ref.ResultOf(p.Rank, 0)
		verdict := "OK"
		if p.Result != want {
			verdict = fmt.Sprintf("WRONG (native: %v)", want)
			wrong++
		}
		fmt.Printf("rank %d replica %d: %v %s\n", p.Rank, p.Rep, p.Result, verdict)
	}
	if wrong > 0 {
		log.Fatalf("%d surviving replicas disagree with the native run", wrong)
	}
}

func stencil(env *cluster.Env) (any, error) {
	c := env.World

	// 1. Process topology: a balanced 2D grid with non-periodic edges.
	dims := mpi.DimsCreate(c.Size(), 2, nil)
	cart := c.CartCreate(dims, []bool{false, false})
	if cart == nil {
		return "outside grid", nil
	}
	upSrc, downDst := cart.CartShift(0, 1)
	leftSrc, rightDst := cart.CartShift(1, 1)

	// 2. Local field with a one-cell halo ring: (gridN+2)² float64 cells,
	// seeded from the rank so every replica computes on identical data.
	const n = gridN + 2
	cur := make([]float64, n*n)
	nxt := make([]float64, n*n)
	coords := cart.Coords()
	for i := 1; i <= gridN; i++ {
		for j := 1; j <= gridN; j++ {
			cur[i*n+j] = float64((coords[0]*gridN+i)*(coords[1]*gridN+j)%97) / 97.0
		}
	}

	// 3. Halo faces as subarray datatypes over the raw byte view of the
	// field. Rows are contiguous; columns are strided — exactly the case
	// derived datatypes exist for.
	rowFace := func(row int) mpi.Subarray {
		return mpi.Subarray{Sizes: []int{n, n}, Subsizes: []int{1, gridN},
			Starts: []int{row, 1}, Elem: mpi.Float64}
	}
	colFace := func(col int) mpi.Subarray {
		return mpi.Subarray{Sizes: []int{n, n}, Subsizes: []int{gridN, 1},
			Starts: []int{1, col}, Elem: mpi.Float64}
	}

	// 4. Persistent receive requests for the four halo faces, created
	// once. (Send sides pack fresh data each step, so they use
	// IsendLayout; receive buffers are fixed, the persistent-request
	// sweet spot.)
	haloUp := make([]byte, rowFace(0).PackedSize())
	haloDown := make([]byte, rowFace(0).PackedSize())
	haloLeft := make([]byte, colFace(0).PackedSize())
	haloRight := make([]byte, colFace(0).PackedSize())
	recvs := []*mpi.Persistent{
		cart.RecvInit(upSrc, 1, haloUp),
		cart.RecvInit(downDst, 2, haloDown),
		cart.RecvInit(leftSrc, 3, haloLeft),
		cart.RecvInit(rightDst, 4, haloRight),
	}

	for step := 0; step < steps; step++ {
		env.Step(step, nil)

		// 5. Exchange halos: start the persistent receives, pack and send
		// the boundary faces through the subarray layouts.
		mpi.Startall(recvs...)
		raw := mpi.Float64Bytes(cur)
		var sends []*mpi.Request
		sends = append(sends,
			cart.IsendLayout(upSrc, 2, rowFace(1), raw),        // my top row → their bottom halo
			cart.IsendLayout(downDst, 1, rowFace(gridN), raw),  // my bottom row → their top halo
			cart.IsendLayout(leftSrc, 4, colFace(1), raw),      // my left col → their right halo
			cart.IsendLayout(rightDst, 3, colFace(gridN), raw)) // my right col → their left halo
		mpi.WaitallPersistent(recvs...)
		mpi.Waitall(sends...)

		// 6. Scatter received faces into the halo ring.
		rowFace(0).Unpack(haloUp, raw)
		rowFace(n-1).Unpack(haloDown, raw)
		colFace(0).Unpack(haloLeft, raw)
		colFace(n-1).Unpack(haloRight, raw)
		copy(cur, mpi.BytesFloat64(raw))

		// 7. Jacobi relaxation on the interior.
		for i := 1; i <= gridN; i++ {
			for j := 1; j <= gridN; j++ {
				nxt[i*n+j] = 0.25 * (cur[(i-1)*n+j] + cur[(i+1)*n+j] + cur[i*n+j-1] + cur[i*n+j+1])
			}
		}
		cur, nxt = nxt, cur
	}

	// Global heat must agree bit-for-bit on every replica of every rank.
	local := 0.0
	for i := 1; i <= gridN; i++ {
		for j := 1; j <= gridN; j++ {
			local += cur[i*n+j]
		}
	}
	total := cart.AllreduceFloat64(local, mpi.OpSum)
	return fmt.Sprintf("coords=%v heat=%v", coords, total), nil
}
