package cluster

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/mpi"
)

func TestCheckpointRestartAfterRankLoss(t *testing.T) {
	// The paper's combined scheme (§1): replication absorbs single-
	// replica failures; only the rare loss of ALL replicas of a rank
	// forces a rollback to the last checkpoint. Simulate exactly that:
	// both replicas of rank 1 die at step 6 — Run itself tears the epoch
	// down, rolls back to the latest committed wave, and re-executes to
	// completion. One call, no error, correct results.
	dir := t.TempDir()
	const steps, every = 10, 2
	// rollbackApp resumes from the launcher-seeded Env.Restored — scanning
	// the live store here instead would race the in-run commit/prune.
	app := rollbackApp(steps, every)

	rep := Run(Config{
		Ranks: 2, Protocol: SDR, Timeout: 20 * time.Second,
		CheckpointDir: dir,
		Failures: []FailureEvent{
			{Rank: 1, Rep: 0, AtStep: 6},
			{Rank: 1, Rep: 1, AtStep: 6},
		},
	}, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", rep.Restarts)
	}
	if rep.RestartWave < 2 {
		t.Errorf("RestartWave = %d, want a committed wave ≥ 2", rep.RestartWave)
	}
	want := wantPingPong(steps)
	for _, p := range rep.Procs {
		if p.Crashed {
			t.Errorf("rank %d rep %d still crashed in the final epoch (schedule re-fired)", p.Rank, p.Rep)
			continue
		}
		if p.Result != want {
			t.Errorf("rank %d rep %d after rollback: %v want %v", p.Rank, p.Rep, p.Result, want)
		}
	}

	// The store was pruned down to the surviving wave(s): the chosen wave
	// is still loadable.
	store, err := ckpt.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	latest, err := store.LatestCommon(2)
	if err != nil || latest < rep.RestartWave {
		t.Fatalf("no usable checkpoint line after the run: %d %v", latest, err)
	}
}

func TestCheckpointWriterUniqueness(t *testing.T) {
	// Only one replica per rank writes; a second writer would clobber or
	// duplicate output. Verified by checking writes exist and the run's
	// checkpoints verify against every replica's state.
	dir := t.TempDir()
	app := func(env *Env) (any, error) {
		c := env.World
		sum := c.AllreduceFloat64(float64(c.Rank()), mpi.OpSum)
		state := make([]byte, 8)
		binary.LittleEndian.PutUint64(state, uint64(sum))
		if err := env.Checkpoint(1, state); err != nil {
			return nil, err
		}
		// Flush waits for this process's writer. Leaving a barrier with
		// every send acknowledged means the other world's ranks received
		// what this rank's twin sent them after its Flush: the writer has
		// written.
		if err := env.Flush(); err != nil {
			return nil, err
		}
		c.Barrier()
		env.Replicated().Quiesce()
		// Every replica (writer or not) verifies the stored file against
		// its own state — the redundant-execution output comparison.
		store, err := ckpt.NewStore(dir)
		if err != nil {
			return nil, err
		}
		return nil, store.Verify(env.Rank, 1, state)
	}
	rep := Run(Config{Ranks: 3, Protocol: SDR, Timeout: 20 * time.Second, CheckpointDir: dir}, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointAfterReplicaFailureWriterMigrates(t *testing.T) {
	// If the writer replica (rep 0) dies, the surviving replica becomes
	// the writer and checkpoints keep flowing.
	dir := t.TempDir()
	app := func(env *Env) (any, error) {
		c := env.World
		buf := make([]byte, 8)
		for i := 0; i < 6; i++ {
			env.Step(i, nil)
			if c.Rank() == 1 {
				c.Send(0, 0, buf)
				c.Recv(0, 1, buf)
			} else {
				c.Recv(1, 0, buf)
				c.Send(1, 1, buf)
			}
			if i == 4 {
				c.Barrier()
				if err := env.Checkpoint(i, []byte{byte(i)}); err != nil {
					return nil, err
				}
			}
		}
		return nil, nil
	}
	rep := Run(Config{
		Ranks: 2, Protocol: SDR, Timeout: 20 * time.Second, CheckpointDir: dir,
		Failures: []FailureEvent{{Rank: 0, Rep: 0, AtStep: 2}},
	}, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	store, _ := ckpt.NewStore(dir)
	if _, err := store.Load(0, 4); err != nil {
		t.Fatalf("rank 0's checkpoint missing after writer migration: %v", err)
	}
	if _, err := store.Load(1, 4); err != nil {
		t.Fatalf("rank 1's checkpoint missing: %v", err)
	}
}
