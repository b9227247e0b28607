package cluster

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
)

// TestWaveTallyDropsFinishedWaves is the leak regression: the tally used to
// keep one map per checkpoint wave for the life of the epoch. A long run
// must hold at most the wave still being collected.
func TestWaveTallyDropsFinishedWaves(t *testing.T) {
	const ranks = 4
	tally := waveTally{ranks: ranks}
	for wave := 1; wave <= 1000; wave++ {
		// Rank 0 runs one wave ahead, as an unreplicated rank may.
		if tally.note(0, wave+1) {
			t.Fatalf("wave %d complete after one save", wave+1)
		}
		for rank := 0; rank < ranks; rank++ {
			// Rank 0's save of this wave is a duplicate from wave 2 on.
			if done, want := tally.note(rank, wave), rank == ranks-1; done != want {
				t.Fatalf("wave %d rank %d: complete = %v, want %v", wave, rank, done, want)
			}
		}
		if len(tally.open) > 1 {
			t.Fatalf("after wave %d: %d waves live, want at most 1", wave, len(tally.open))
		}
	}
	// A wave that never completes (its writer died before saving) is
	// dropped by the next one that does.
	tally.note(1, 2000)
	for rank := 0; rank < ranks; rank++ {
		tally.note(rank, 2001)
	}
	if len(tally.open) != 0 {
		t.Fatalf("%d waves live after a newer wave completed, want 0", len(tally.open))
	}
}

// TestNoteCkptCommitsAWaveOnce drives both launchers' noteCkpt: a duplicate
// save of a committed wave (a substitute writer catching up) must neither
// stamp the wave again nor grow the tally.
func TestNoteCkptCommitsAWaveOnce(t *testing.T) {
	newStore := func(t *testing.T) *ckpt.Store {
		store, err := ckpt.NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	check := func(t *testing.T, store *ckpt.Store, tally *waveTally, note func(rank, step int)) {
		note(0, 7)
		if store.Committed(7) {
			t.Fatal("wave 7 committed before every rank saved")
		}
		note(1, 7)
		if !store.Committed(7) {
			t.Fatal("wave 7 not committed after every rank saved")
		}
		// Take the marker away: a second stamp would put it back.
		if err := os.Remove(filepath.Join(store.Dir(), "ckpt-commit-s00000007.ok")); err != nil {
			t.Fatal(err)
		}
		note(0, 7)
		note(1, 7)
		note(1, 3)
		if store.Committed(7) || store.Committed(3) {
			t.Fatal("duplicate save of a committed wave stamped it again")
		}
		if len(tally.open) != 0 {
			t.Fatalf("duplicate saves left %d waves in the tally", len(tally.open))
		}
	}
	t.Run("runState", func(t *testing.T) {
		store := newStore(t)
		rs := &runState{commitLine: commitLine{store: store, waves: waveTally{ranks: 2}}}
		check(t, store, &rs.waves, func(rank, step int) {
			if err := rs.noteCkpt(rank, step); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("registry", func(t *testing.T) {
		store := newStore(t)
		reg, err := newRegistry(2, 2, store, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
		check(t, store, &reg.waves, func(rank, step int) { _ = reg.noteCkpt(rank, step) })
	})
}
