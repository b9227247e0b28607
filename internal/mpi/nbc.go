package mpi

// Non-blocking collectives (MPI-3's MPI_Ibarrier, MPI_Ibcast,
// MPI_Iallreduce, MPI_Iallgather). Each returns an ordinary Request whose
// completion gate advances a round-based state machine: the collective
// progresses whenever the application waits or tests on the request (or
// any library call pumps progress), consistent with this library's — and
// the paper's — no-asynchronous-progress model. Because every round is
// made of plain point-to-point operations, the replication protocols cover
// non-blocking collectives exactly as they cover blocking ones.

// nbcMachine is a resumable collective schedule: advance starts rounds,
// checks their requests, and reports completion.
type nbcMachine struct {
	pending []*Request
	step    func() bool // starts/continues rounds; true when fully done
}

// GateOpen implements Gate: it reports whether the machine (and thus the
// NBC request) is done; it advances the schedule as a side effect. It keeps stepping while the
// schedule can make progress: a stage consisting only of eager sends
// completes instantly, and stopping there would strand the machine until
// some unrelated message happened to wake the waiter.
func (m *nbcMachine) GateOpen(uint64, bool) bool {
	for {
		for _, r := range m.pending {
			if r != nil && !r.ready() {
				return false
			}
		}
		m.pending = m.pending[:0]
		if m.step() {
			return true
		}
		// Loop: the newly posted stage may already be complete.
	}
}

// nbcRequest wraps a machine into an application Request.
func (c *Comm) nbcRequest(m *nbcMachine) *Request {
	return NewRequest(c, true, nil, m)
}

// Ibarrier starts a non-blocking barrier (dissemination rounds).
func (c *Comm) Ibarrier() *Request {
	seq := c.nextCollSeq()
	size := c.Size()
	rank := int(c.rank)
	dist := 1
	round := 0
	var token [1]byte
	m := &nbcMachine{}
	m.step = func() bool {
		if dist >= size {
			return true
		}
		to := Rank((rank + dist) % size)
		from := Rank((rank - dist + size) % size)
		m.pending = append(m.pending,
			c.irecvColl(from, collTag(seq, round), token[:]),
			c.isendColl(to, collTag(seq, round), nil))
		dist *= 2
		round++
		return false
	}
	if size == 1 {
		m.step = func() bool { return true }
	}
	return c.nbcRequest(m)
}

// Ibcast starts a non-blocking broadcast (binomial tree). On non-roots,
// data holds the payload once the request completes.
func (c *Comm) Ibcast(root Rank, data []byte) *Request {
	seq := c.nextCollSeq()
	size := c.Size()
	rank := int(c.rank)
	vrank := (rank - int(root) + size) % size
	tag := collTag(seq, 0)

	// Phase 1: receive from the parent (non-roots). Phase 2: send to
	// children, highest mask first.
	recvMask := 0
	for mask := 1; mask < size; mask <<= 1 {
		if vrank&mask != 0 {
			recvMask = mask
			break
		}
	}
	phase := 0
	mask := 0
	m := &nbcMachine{}
	m.step = func() bool {
		if phase == 0 {
			phase = 1
			if recvMask != 0 {
				src := Rank((vrank - recvMask + int(root)) % size)
				m.pending = append(m.pending, c.irecvColl(src, tag, data))
				mask = recvMask >> 1
				return false
			}
			// Root: start sending from the top of the tree.
			mask = 1
			for mask < size {
				mask <<= 1
			}
			mask >>= 1
		}
		// Send phase: one child per step (they can overlap, but one per
		// advance keeps the machine simple and still non-blocking).
		for mask > 0 {
			if vrank+mask < size {
				dst := Rank((vrank + mask + int(root)) % size)
				m.pending = append(m.pending, c.isendColl(dst, tag, data))
				mask >>= 1
				return false
			}
			mask >>= 1
		}
		return true
	}
	if size == 1 {
		m.step = func() bool { return true }
	}
	return c.nbcRequest(m)
}

// Iallreduce starts a non-blocking allreduce (recursive doubling with the
// standard non-power-of-two fold). The returned buffer holds the result
// once the request completes.
func (c *Comm) Iallreduce(data []byte, dt Datatype, op Op) (*Request, []byte) {
	seq := c.nextCollSeq()
	size := c.Size()
	rank := int(c.rank)
	acc := append([]byte(nil), data...)
	if size == 1 {
		m := &nbcMachine{step: func() bool { return true }}
		return c.nbcRequest(m), acc
	}
	tmp := make([]byte, len(data))

	pow2 := 1
	for pow2*2 <= size {
		pow2 *= 2
	}
	rem := size - pow2

	const (
		phasePre = iota
		phaseExchange
		phasePost
		phaseDone
	)
	phase := phasePre
	round := 0
	dist := 1
	needApply := false

	m := &nbcMachine{}
	m.step = func() bool {
		if needApply {
			op.Apply(dt, acc, tmp)
			needApply = false
		}
		switch phase {
		case phasePre:
			phase = phaseExchange
			switch {
			case rank >= pow2:
				m.pending = append(m.pending, c.isendColl(Rank(rank-pow2), collTag(seq, round), acc))
				round++
				return false
			case rank < rem:
				m.pending = append(m.pending, c.irecvColl(Rank(rank+pow2), collTag(seq, round), tmp))
				needApply = true
				round++
				return false
			}
			round++
			return m.step()
		case phaseExchange:
			if rank >= pow2 {
				phase = phasePost
				round += log2ceil(pow2)
				return m.step()
			}
			if dist >= pow2 {
				phase = phasePost
				return m.step()
			}
			peer := Rank(rank ^ dist)
			m.pending = append(m.pending,
				c.irecvColl(peer, collTag(seq, round), tmp),
				c.isendColl(peer, collTag(seq, round), acc))
			needApply = true
			dist *= 2
			round++
			return false
		case phasePost:
			phase = phaseDone
			switch {
			case rank < rem:
				m.pending = append(m.pending, c.isendColl(Rank(rank+pow2), collTag(seq, round), acc))
				return false
			case rank >= pow2:
				m.pending = append(m.pending, c.irecvColl(Rank(rank-pow2), collTag(seq, round), acc))
				return false
			}
			return true
		default:
			return true
		}
	}
	return c.nbcRequest(m), acc
}

// Iallgather starts a non-blocking allgather (ring). The returned buffer
// holds all blocks once the request completes.
func (c *Comm) Iallgather(data []byte) (*Request, []byte) {
	seq := c.nextCollSeq()
	size := c.Size()
	bl := len(data)
	out := make([]byte, size*bl)
	rank := int(c.rank)
	copy(out[rank*bl:], data)
	if size == 1 {
		m := &nbcMachine{step: func() bool { return true }}
		return c.nbcRequest(m), out
	}
	right := Rank((rank + 1) % size)
	left := Rank((rank - 1 + size) % size)
	step := 0
	m := &nbcMachine{}
	m.step = func() bool {
		if step >= size-1 {
			return true
		}
		sendBlock := (rank - step + size) % size
		recvBlock := (rank - step - 1 + size) % size
		tag := collTag(seq, step)
		m.pending = append(m.pending,
			c.irecvColl(left, tag, out[recvBlock*bl:(recvBlock+1)*bl]),
			c.isendColl(right, tag, out[sendBlock*bl:(sendBlock+1)*bl]))
		step++
		return false
	}
	return c.nbcRequest(m), out
}
