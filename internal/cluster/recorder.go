package cluster

import (
	"fmt"
	"sync"

	"repro/internal/core"
)

// Runtime check of send-determinism (Definition 1 of the paper): for every
// process p, the subsequence of send events S|p is identical in every
// correct execution. The replicas of a rank are, by construction,
// independent executions of the same rank, so comparing their recorded
// send sequences (Config.TraceSends, Report.Recorders) is a direct check
// of the property SDR-MPI relies on.

// SendEvent is one recorded logical send.
type SendEvent struct {
	Ctx     uint32
	DstRank int
	Tag     int
	Len     int
	Hash    uint64 // core.HashPayload of the payload
}

// Recorder accumulates one process's send sequence as a rolling hash chain
// plus (optionally) the explicit event list. The chain alone suffices to
// compare executions; the event list makes divergences diagnosable.
type Recorder struct {
	mu      sync.Mutex  // sdr:lockrank tracerec
	chain   uint64      // guarded by mu
	count   int         // guarded by mu
	events  []SendEvent // guarded by mu
	maxKeep int
}

// NewRecorder creates a recorder. If keepEvents > 0, up to that many
// events are kept verbatim for diagnostics.
func NewRecorder(keepEvents int) *Recorder {
	return &Recorder{chain: 14695981039346656037, maxKeep: keepEvents}
}

// RecordSend folds one send event into the chain.
func (r *Recorder) RecordSend(ctx uint32, dstRank, tag int, payload []byte) {
	ph := core.HashPayload(payload)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.count++
	for _, v := range []uint64{uint64(ctx), uint64(int64(dstRank)), uint64(int64(tag)), uint64(len(payload)), ph} {
		r.chain ^= v
		r.chain *= 1099511628211
	}
	if len(r.events) < r.maxKeep {
		r.events = append(r.events, SendEvent{Ctx: ctx, DstRank: dstRank, Tag: tag, Len: len(payload), Hash: ph})
	}
}

// Chain returns the rolling hash of the send sequence so far.
func (r *Recorder) Chain() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.chain
}

// Count returns the number of sends recorded.
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Events returns the retained event prefix.
func (r *Recorder) Events() []SendEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SendEvent(nil), r.events...)
}

// CheckSendDeterminism compares the send sequences of several executions
// of the same logical rank (replicas, or repeated runs) and returns a
// descriptive error on the first divergence. A nil error means the
// recorded prefixes and chains are identical.
func CheckSendDeterminism(rs ...*Recorder) error {
	if len(rs) < 2 {
		return nil
	}
	ref := rs[0]
	for i, r := range rs[1:] {
		if r.Count() != ref.Count() {
			return fmt.Errorf("cluster: execution %d sent %d messages, execution 0 sent %d",
				i+1, r.Count(), ref.Count())
		}
		if r.Chain() != ref.Chain() {
			// Find the first diverging event if we kept them.
			a, b := ref.Events(), r.Events()
			n := min(len(a), len(b))
			for k := 0; k < n; k++ {
				if a[k] != b[k] {
					return fmt.Errorf("cluster: send sequences diverge at event %d: %+v vs %+v", k, a[k], b[k])
				}
			}
			return fmt.Errorf("cluster: send chains differ (0x%x vs 0x%x) beyond retained prefix",
				ref.Chain(), r.Chain())
		}
	}
	return nil
}
