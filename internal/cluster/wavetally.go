package cluster

import (
	"sync"

	"repro/internal/ckpt"
)

// commitLine stamps the coordinated-commit marker: the launcher side of
// Env.Checkpoint, shared by runState in process and the registry across
// processes.
type commitLine struct {
	store *ckpt.Store
	mu    sync.Mutex // sdr:lockrank waves
	waves waveTally  // guarded by mu
}

// noteCkpt records that rank's writer completed its save for step; when
// every rank has, the wave is committed and superseded waves are pruned.
func (c *commitLine) noteCkpt(rank, step int) error {
	c.mu.Lock()
	complete := c.waves.note(rank, step)
	c.mu.Unlock()
	if !complete {
		return nil
	}
	if err := c.store.Commit(step); err != nil {
		return err
	}
	return c.store.Prune(step)
}

// waveTally counts, per checkpoint wave, the ranks whose writer has saved
// it — the bookkeeping behind the coordinated-commit marker. Not safe for
// concurrent use: commitLine guards it.
type waveTally struct {
	ranks int
	next  int                  // waves below it are complete or superseded
	open  map[int]map[int]bool // wave ≥ next → ranks whose writer saved it
}

// note records that rank's writer saved wave step and reports whether that
// completed the wave. A wave completes once: it and every older wave are
// dropped from the tally (a rank saves its waves in order, so an older one
// can no longer complete, and Prune is about to remove its files), and a
// later save of one of them — a substitute writer catching up — counts for
// nothing.
func (t *waveTally) note(rank, step int) bool {
	if step < t.next {
		return false
	}
	saved := t.open[step]
	if saved == nil {
		if t.open == nil {
			t.open = make(map[int]map[int]bool)
		}
		saved = make(map[int]bool)
		t.open[step] = saved
	}
	saved[rank] = true
	if len(saved) < t.ranks {
		return false
	}
	t.next = step + 1
	for st := range t.open {
		if st <= step {
			delete(t.open, st)
		}
	}
	return true
}
