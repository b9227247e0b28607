package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/mpi"
)

// waveRing is a resumable ring whose checkpoint images are imgBytes long:
// the sum in the first 8 bytes, then one byte per 4 KiB page that counts
// the waves before this one. A barrier opens every step that follows a
// wave, so no process of a world takes that step before every writer of
// the world has captured the wave.
func waveRing(steps, every, imgBytes int) AppFunc {
	return func(env *Env) (any, error) {
		c := env.World
		n := c.Size()
		me := int(c.Rank())
		start := 0
		var sum uint64
		img := make([]byte, imgBytes)
		if b := env.Restored(); len(b) == imgBytes && env.RestoredStep() >= 0 {
			start = env.RestoredStep()
			sum = binary.LittleEndian.Uint64(b)
			if want := byte(start/every - 1); b[8] != want {
				return nil, fmt.Errorf("wave %d restored with page count %d, want %d: the file holds a later image", start, b[8], want)
			}
			copy(img, b)
		}
		sbuf, rbuf := make([]byte, 8), make([]byte, 8)
		for i := start; i < steps; i++ {
			if i > 0 && i%every == 0 {
				c.Barrier()
			}
			env.Step(i, nil)
			binary.LittleEndian.PutUint64(sbuf, uint64(me*1000+i))
			req := c.Isend(mpi.Rank((me+1)%n), 0, sbuf)
			c.Recv(mpi.Rank((me-1+n)%n), 0, rbuf)
			mpi.Waitall(req)
			sum += binary.LittleEndian.Uint64(rbuf)
			if (i+1)%every == 0 {
				binary.LittleEndian.PutUint64(img, sum)
				// The writer persists a copy: scribbling over the image
				// right after Checkpoint returns must not reach the file.
				if err := env.Checkpoint(i+1, img); err != nil {
					return nil, err
				}
				for j := 8; j < len(img); j += 4096 {
					img[j]++
				}
			}
		}
		return sum, nil
	}
}

// TestCheckpointRollbackPicksKillStepWave loses both replicas of a rank on
// the first step after wave 6, with 256 KiB images whose writes are still
// in flight when the victims die. The rollback must restart from wave 6,
// every time: the victims wait for their own wave before they die, and
// every process joins its writer before the ladder reads the store.
func TestCheckpointRollbackPicksKillStepWave(t *testing.T) {
	const ranks, steps, every, wave = 4, 12, 3, 6
	cfg := Config{Ranks: ranks, Protocol: SDR, Timeout: 30 * time.Second}
	cfg.CheckpointDir = t.TempDir()
	free := Run(cfg, waveRing(steps, every, 256<<10))
	if err := free.FirstError(); err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointDir = t.TempDir()
	cfg.Failures = []FailureEvent{{Rank: 2, Rep: 0, AtStep: wave}, {Rank: 2, Rep: 1, AtStep: wave}}
	rep := Run(cfg, waveRing(steps, every, 256<<10))
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 1 || rep.RestartWave != wave {
		t.Fatalf("restarts %d from wave %d; want 1 from wave %d", rep.Restarts, rep.RestartWave, wave)
	}
	for _, p := range rep.Procs {
		if want := free.ResultOf(p.Rank, p.Rep); p.Result != want {
			t.Errorf("rank %d rep %d: sum %v, fault-free %v", p.Rank, p.Rep, p.Result, want)
		}
	}
}

// TestDistributedReplayPicksKillStepWave kills the logged rank's worker on
// the step right after its wave 6. The worker waits for that wave before it
// reports itself parked for the SIGKILL, so both launchers relaunch it from
// wave 6, not from the wave before.
func TestDistributedReplayPicksKillStepWave(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	cfg := Config{Ranks: 3, Replication: 2, Protocol: SDR, UnreplicatedRanks: []int{1},
		RecoveryMode: RecoveryLog, Failures: []FailureEvent{{Rank: 1, Rep: 0, AtStep: 6}},
		Timeout: 60 * time.Second}
	tallies, errs, _ := launchBoth(t, cfg, t.TempDir)
	for i, launcher := range []string{"Run", "RunDistributed"} {
		if errs[i] != nil {
			t.Fatalf("%s: %v", launcher, errs[i])
		}
		if got := tallies[i]; got.Restarts != 0 || got.Replays != 1 || got.ReplayWave != 6 {
			t.Errorf("%s: restarts %d, replays %d from wave %d; want 0, 1 from wave 6",
				launcher, got.Restarts, got.Replays, got.ReplayWave)
		}
	}
}

// storeLoss checkpoints waves 2, 4 and 6 and removes the store directory
// after wave 2 has persisted everywhere, so that every writer's wave 4
// fails. With flush set, it calls Flush after each wave, puts the
// directory back before wave 6 and returns wave 4's error as its result;
// without it, it returns right after capturing wave 4, so the error can
// only come back in its process report.
func storeLoss(dir string, flush bool) AppFunc {
	return func(env *Env) (any, error) {
		c := env.World
		// Under SDR the writers, every rank's replica 0, share world 0, and
		// a barrier there orders them: flag runs the change between two.
		flag := func(change func() error) error {
			c.Barrier()
			if env.Rank == 0 && env.Rep == 0 {
				if err := change(); err != nil {
					return err
				}
			}
			c.Barrier()
			return nil
		}
		state := []byte{2}
		if err := env.Checkpoint(2, state); err != nil {
			return nil, err
		}
		if err := env.Flush(); err != nil {
			return nil, err
		}
		if err := flag(func() error { return os.RemoveAll(dir) }); err != nil {
			return nil, err
		}
		state[0] = 4
		if err := env.Checkpoint(4, state); err != nil || !flush {
			return nil, err
		}
		lost := env.Flush()
		if err := flag(func() error { return os.MkdirAll(dir, 0o755) }); err != nil {
			return nil, err
		}
		state[0] = 6
		if err := env.Checkpoint(6, state); err != nil {
			return nil, err
		}
		if err := env.Flush(); err != nil {
			return nil, err
		}
		return lost, nil
	}
}

// TestCheckpointPersistErrorSurfaces removes the store directory under a
// running application. Every writer's wave 4 fails: Flush returns the
// error, the wave never commits, and the store takes the next wave once
// the directory is back.
func TestCheckpointPersistErrorSurfaces(t *testing.T) {
	dir := t.TempDir()
	rep := Run(Config{Ranks: 3, Protocol: SDR, Timeout: 20 * time.Second, CheckpointDir: dir},
		storeLoss(dir, true))
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Procs {
		lost, _ := p.Result.(error)
		switch {
		case p.Rep == 0 && (!errors.Is(lost, fs.ErrNotExist) || !strings.Contains(lost.Error(), "wave 4")):
			t.Errorf("rank %d writer: Flush after wave 4 returned %v, want the failed save", p.Rank, lost)
		case p.Rep != 0 && lost != nil:
			t.Errorf("rank %d rep %d wrote nothing, but Flush returned %v", p.Rank, p.Rep, lost)
		}
	}
	store, err := ckpt.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if latest, err := store.LatestCommon(3); err != nil || latest != 6 {
		t.Fatalf("LatestCommon = %d, %v; want wave 6", latest, err)
	}
	if store.Committed(4) {
		t.Fatal("the failed wave 4 committed")
	}
}

// TestCheckpointPersistErrorEndsProcess lets the application return while
// its failed wave is still in flight: the launcher waits for the writer,
// and the wave's error becomes the process's, under both launchers.
func TestCheckpointPersistErrorEndsProcess(t *testing.T) {
	dir := t.TempDir()
	rep := Run(Config{Ranks: 2, Protocol: SDR, Timeout: 20 * time.Second, CheckpointDir: dir},
		storeLoss(dir, false))
	for _, p := range rep.Procs {
		switch {
		case p.Rep == 0 && !errors.Is(p.Err, fs.ErrNotExist):
			t.Errorf("rank %d writer: process error %v, want the failed save of wave 4", p.Rank, p.Err)
		case p.Rep != 0 && p.Err != nil:
			t.Errorf("rank %d rep %d wrote nothing, but failed with %v", p.Rank, p.Rep, p.Err)
		}
	}
	if rep.FirstError() == nil {
		t.Fatal("the run reports no error")
	}
	if testing.Short() {
		return
	}
	dir = t.TempDir()
	dist := RunDistributed(DistConfig{
		Config:    Config{Ranks: 2, Replication: 2, Protocol: SDR, CheckpointDir: dir, Timeout: 60 * time.Second},
		WorkerCmd: []string{os.Args[0], "-test.run=^TestDistWorkerHelper$"},
		WorkerEnv: []string{"SDR_TEST_APP=storeloss"},
		LogSink:   io.Discard,
	})
	for _, p := range dist.Procs {
		switch {
		case p.Rep == 0 && !strings.Contains(p.Err, "wave 4"):
			t.Errorf("worker rank %d writer: error %q, want the failed save of wave 4", p.Rank, p.Err)
		case p.Rep != 0 && p.Err != "":
			t.Errorf("worker rank %d rep %d wrote nothing, but failed with %q", p.Rank, p.Rep, p.Err)
		}
	}
	if dist.FirstError() == nil {
		t.Fatal("the distributed run reports no error")
	}
}
