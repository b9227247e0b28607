package cluster

// waveTally counts, per checkpoint wave, the ranks whose writer has saved
// it — the bookkeeping behind the coordinated-commit marker, shared by the
// two launchers that stamp it (runState in process, the registry across
// processes). Not safe for concurrent use: each owner guards its tally with
// its own mutex.
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
