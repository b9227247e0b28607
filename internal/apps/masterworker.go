package apps

import (
	"repro/internal/mpi"
)

// Master-worker tags.
const (
	tagTask   = 200
	tagResult = 201
	tagStop   = 202
)

// MWParams sizes the master-worker workload.
type MWParams struct {
	// Tasks is the total number of work units.
	Tasks int
	// Work scales the per-task compute.
	Work int
	// Skew makes task cost depend on the task id (len variation drives
	// genuinely different completion orders).
	Skew int
	// PerWorkerQuota, when positive, caps every worker at exactly that
	// many tasks. This keeps the per-channel message *counts* identical
	// across replica worlds even when the assignment *order* diverges —
	// the configuration the replication tests use to expose the
	// send-determinism violation without desynchronising the ack
	// pairing.
	PerWorkerQuota int
	// ExtraDelay, when non-nil, adds task-dependent compute microseconds
	// on the worker. Tests key it off the replica index to force
	// different completion orders deterministically — standing in for
	// the hardware timing jitter that drives the divergence on a real
	// cluster.
	ExtraDelay func(task int) int
	// BlockingSends makes the master use blocking sends for task
	// hand-outs. Under a replication protocol whose send completion is
	// gated on cross-replica acks, two master replicas that diverge in
	// their assignment order then block on each other's unsent messages —
	// a circular wait. This is the concrete mechanism behind the paper's
	// restriction of SDR-MPI to send-deterministic applications; the
	// default (deferred non-blocking sends) lets the divergence run to
	// completion so the trace checker can observe it instead.
	BlockingSends bool
}

// MasterWorker is the canonical NON-send-deterministic workload: the class
// the paper's §2.1 names as the main exception to send-determinism. Rank 0
// hands tasks to whichever worker reports back first (an ANY_SOURCE
// receive), so the master's send sequence — which worker receives which
// task — depends on message arrival order. The aggregate checksum is still
// deterministic (a commutative sum), which is exactly what makes the
// violation invisible to output checks and detectable only by the
// send-determinism checker (cluster.CheckSendDeterminism).
func MasterWorker(c *mpi.Comm, p MWParams) Result {
	size := c.Size()
	if size == 1 {
		// Degenerate case: the master computes everything.
		sum := 0.0
		for task := 0; task < p.Tasks; task++ {
			sum += TaskValue(task)
		}
		return Result{Checksum: sum, Iterations: p.Tasks}
	}
	if c.Rank() == 0 {
		return mwMaster(c, p)
	}
	return mwWorker(c, p)
}

func mwMaster(c *mpi.Comm, p MWParams) Result {
	size := c.Size()
	next := 0
	outstanding := 0
	assigned := make([]int, size) // tasks handed to each worker

	// Task hand-outs default to non-blocking sends whose completion is
	// collected at the end (see MWParams.BlockingSends for why).
	var pending []*mpi.Request
	post := func(w mpi.Rank, tag int, data []byte) {
		if p.BlockingSends {
			c.Send(w, tag, data)
			return
		}
		pending = append(pending, c.Isend(w, tag, data))
	}

	// Prime every worker with one task.
	for w := 1; w < size && next < p.Tasks; w++ {
		post(mpi.Rank(w), tagTask, mpi.Int64Bytes([]int64{int64(next)}))
		assigned[w]++
		next++
		outstanding++
	}
	// Results are summed in task order at the end: float addition is not
	// associative, so summing in arrival order would leak the assignment
	// non-determinism into the checksum's last bits.
	values := make([]float64, p.Tasks)
	done := 0
	buf := make([]byte, 16)
	for outstanding > 0 {
		// The non-deterministic reception: first finished worker wins.
		st := c.Recv(mpi.AnySource, tagResult, buf)
		values[mpi.Int64Value(buf)] = mpi.Float64Value(buf[8:])
		done++
		outstanding--
		quotaOK := p.PerWorkerQuota <= 0 || assigned[st.Source] < p.PerWorkerQuota
		if next < p.Tasks && quotaOK {
			// The master's *send sequence* now depends on arrival order:
			// the send-determinism violation.
			post(st.Source, tagTask, mpi.Int64Bytes([]int64{int64(next)}))
			assigned[st.Source]++
			next++
			outstanding++
		} else {
			post(st.Source, tagStop, nil)
		}
	}
	// Workers beyond the task count were never primed and never report;
	// they still need a stop.
	for w := size - 1; w >= 1 && w > p.Tasks; w-- {
		post(mpi.Rank(w), tagStop, nil)
	}
	mpi.Waitall(pending...)
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return Result{Checksum: sum, Iterations: done}
}

func mwWorker(c *mpi.Comm, p MWParams) Result {
	buf := make([]byte, 8)
	count := 0
	// Like the master's hand-outs, result sends default to non-blocking
	// with completion collected at the end: a blocking result send would
	// stall this worker until the replica world's matching result is
	// matched, lock-stepping the worlds (or deadlocking them — see
	// MWParams.BlockingSends).
	var pending []*mpi.Request
	for {
		st := c.Recv(0, mpi.AnyTag, buf)
		if st.Tag == tagStop {
			break
		}
		task := int(mpi.Int64Value(buf))
		v := TaskValue(task)
		// Skewed compute: later tasks take longer, shuffling completion
		// order across workers.
		work := p.Work * (1 + task%max(1, p.Skew))
		if p.ExtraDelay != nil {
			work += p.ExtraDelay(task)
		}
		sink := []float64{v}
		compute(sink, work)
		reply := make([]byte, 16)
		copy(reply[:8], mpi.Int64Bytes([]int64{int64(task)}))
		copy(reply[8:], mpi.Float64Bytes([]float64{v}))
		if p.BlockingSends {
			c.Send(0, tagResult, reply)
		} else {
			pending = append(pending, c.Isend(0, tagResult, reply))
		}
		count++
	}
	mpi.Waitall(pending...)
	return Result{Checksum: 0, Iterations: count}
}

// TaskValue is the deterministic result of one task, exported so tests
// and benches can compute the expected aggregate.
func TaskValue(task int) float64 {
	x := uint64(task*40503 + 271828)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return float64(x%100000) / 777.0
}
