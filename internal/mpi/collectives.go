package mpi

// Collective operations, all implemented on top of the point-to-point
// layer (the paper's §2.2 assumption). Because every send and receive here
// goes through the protocol, a replication protocol that handles
// point-to-point traffic automatically supports every collective with no
// additional code — the core simplicity claim of SDR-MPI.

// Barrier blocks until every rank in the communicator has entered it
// (MPI_Barrier). Dissemination algorithm: ceil(log2 p) rounds.
func (c *Comm) Barrier() {
	seq := c.nextCollSeq()
	size := c.Size()
	if size == 1 {
		return
	}
	rank := int(c.rank)
	for round, dist := 0, 1; dist < size; round, dist = round+1, dist*2 {
		to := Rank((rank + dist) % size)
		from := Rank((rank - dist + size) % size)
		rr := c.irecvColl(from, collTag(seq, round), nil)
		c.sendColl(to, collTag(seq, round), nil)
		rr.Wait()
	}
}

// Bcast broadcasts root's data to every rank (MPI_Bcast); on non-roots
// data is the receive buffer. Binomial tree.
func (c *Comm) Bcast(root Rank, data []byte) {
	seq := c.nextCollSeq()
	size := c.Size()
	if size == 1 {
		return
	}
	rank := int(c.rank)
	vrank := (rank - int(root) + size) % size
	tag := collTag(seq, 0)

	mask := 1
	for mask < size {
		if vrank&mask != 0 {
			src := Rank((vrank - mask + int(root)) % size)
			c.recvColl(src, tag, data)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vrank+mask < size {
			dst := Rank((vrank + mask + int(root)) % size)
			c.sendColl(dst, tag, data)
		}
		mask >>= 1
	}
}

// Allreduce folds every rank's data with op and returns the result on all
// ranks (MPI_Allreduce). Power-of-two communicators use recursive
// doubling; other sizes fold the surplus ranks into the nearest power of
// two first (the standard MPICH approach).
func (c *Comm) Allreduce(data []byte, dt Datatype, op Op) []byte {
	seq := c.nextCollSeq()
	size := c.Size()
	acc := append([]byte(nil), data...)
	if size == 1 {
		return acc
	}
	rank := int(c.rank)
	tmp := make([]byte, len(data))

	pow2 := 1
	for pow2*2 <= size {
		pow2 *= 2
	}
	rem := size - pow2

	// Phase 1: ranks [pow2, size) fold their contribution into their
	// partner in [0, rem).
	round := 0
	if rank >= pow2 {
		c.sendColl(Rank(rank-pow2), collTag(seq, round), acc)
	} else if rank < rem {
		c.recvColl(Rank(rank+pow2), collTag(seq, round), tmp)
		op.Apply(dt, acc, tmp)
	}
	round++

	// Phase 2: recursive doubling among [0, pow2).
	if rank < pow2 {
		for dist := 1; dist < pow2; dist, round = dist*2, round+1 {
			peer := Rank(rank ^ dist)
			rr := c.irecvColl(peer, collTag(seq, round), tmp)
			c.sendColl(peer, collTag(seq, round), acc)
			rr.Wait()
			op.Apply(dt, acc, tmp)
		}
	} else {
		round += log2ceil(pow2)
	}

	// Phase 3: partners return the result to the surplus ranks.
	if rank < rem {
		c.sendColl(Rank(rank+pow2), collTag(seq, round), acc)
	} else if rank >= pow2 {
		c.recvColl(Rank(rank-pow2), collTag(seq, round), acc)
	}
	return acc
}

func log2ceil(n int) int {
	k := 0
	for p := 1; p < n; p *= 2 {
		k++
	}
	return k
}

// Allgather collects equal-size blocks from every rank onto every rank
// (MPI_Allgather). Ring algorithm: p-1 steps, each forwarding the block
// received in the previous step.
func (c *Comm) Allgather(data []byte) []byte {
	seq := c.nextCollSeq()
	size := c.Size()
	bl := len(data)
	out := make([]byte, size*bl)
	rank := int(c.rank)
	copy(out[rank*bl:], data)
	if size == 1 {
		return out
	}
	right := Rank((rank + 1) % size)
	left := Rank((rank - 1 + size) % size)
	for step := 0; step < size-1; step++ {
		sendBlock := (rank - step + size) % size
		recvBlock := (rank - step - 1 + size) % size
		tag := collTag(seq, step)
		rr := c.irecvColl(left, tag, out[recvBlock*bl:(recvBlock+1)*bl])
		c.sendColl(right, tag, out[sendBlock*bl:(sendBlock+1)*bl])
		rr.Wait()
	}
	return out
}

// Alltoall performs the complete exchange: rank i's block j goes to rank
// j's block i (MPI_Alltoall). Pairwise-exchange algorithm, p-1 rounds.
// data holds p blocks of blockLen bytes.
func (c *Comm) Alltoall(data []byte, blockLen int) []byte {
	seq := c.nextCollSeq()
	size := c.Size()
	out := make([]byte, size*blockLen)
	rank := int(c.rank)
	copy(out[rank*blockLen:], data[rank*blockLen:(rank+1)*blockLen])
	for step := 1; step < size; step++ {
		sendTo := Rank((rank + step) % size)
		recvFrom := Rank((rank - step + size) % size)
		tag := collTag(seq, step)
		rr := c.irecvColl(recvFrom, tag, out[int(recvFrom)*blockLen:(int(recvFrom)+1)*blockLen])
		c.sendColl(sendTo, tag, data[int(sendTo)*blockLen:(int(sendTo)+1)*blockLen])
		rr.Wait()
	}
	return out
}

// Alltoallv is the variable-size complete exchange; sendCounts[j] bytes go
// to rank j, recvCounts[j] bytes come from rank j (MPI_Alltoallv with
// implied displacements).
func (c *Comm) Alltoallv(data []byte, sendCounts, recvCounts []int) []byte {
	seq := c.nextCollSeq()
	size := c.Size()
	soffs := make([]int, size+1)
	roffs := make([]int, size+1)
	for i := 0; i < size; i++ {
		soffs[i+1] = soffs[i] + sendCounts[i]
		roffs[i+1] = roffs[i] + recvCounts[i]
	}
	out := make([]byte, roffs[size])
	rank := int(c.rank)
	copy(out[roffs[rank]:roffs[rank+1]], data[soffs[rank]:soffs[rank+1]])
	for step := 1; step < size; step++ {
		sendTo := (rank + step) % size
		recvFrom := (rank - step + size) % size
		tag := collTag(seq, step)
		rr := c.irecvColl(Rank(recvFrom), tag, out[roffs[recvFrom]:roffs[recvFrom+1]])
		c.sendColl(Rank(sendTo), tag, data[soffs[sendTo]:soffs[sendTo+1]])
		rr.Wait()
	}
	return out
}

// --- Typed conveniences ----------------------------------------------------

// AllreduceFloat64 is Allreduce on a single float64, encoded on the stack.
func (c *Comm) AllreduceFloat64(x float64, op Op) float64 {
	var b [8]byte
	var out [1]float64
	GetFloat64s(out[:], c.Allreduce(PutFloat64s(b[:], []float64{x}), Float64, op))
	return out[0]
}
