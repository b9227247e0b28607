package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
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
	tallies, errs, _ := launchBoth(t, cfg, t.TempDir, "ring")
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

// TestWavesPersistInTurn checkpoints a 64 KiB image after every step of an
// 8-rank, r = 2 ring for 100 waves, so the writers of all eight ranks meet
// at the run's persisting turn on every wave, and each process waits for
// its previous wave at the next Checkpoint. Every committed wave left in
// the store must load and verify with the image that rank captured, and
// no temp file may be left behind.
func TestWavesPersistInTurn(t *testing.T) {
	const ranks, waves, imgBytes = 8, 100, 64 << 10
	dir := t.TempDir()
	cfg := Config{Ranks: ranks, Protocol: SDR, CheckpointDir: dir, Timeout: 60 * time.Second}
	rep := Run(cfg, waveRing(waves, 1, imgBytes))
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	store, err := ckpt.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if latest, err := store.LatestCommon(ranks); err != nil || latest != waves {
		t.Fatalf("latest committed wave %d (%v); want %d", latest, err, waves)
	}
	committed := 0
	for wave := 1; wave <= waves; wave++ {
		if !store.Committed(wave) {
			continue
		}
		committed++
		for rank := 0; rank < ranks; rank++ {
			img, err := store.Load(rank, wave)
			if err != nil {
				t.Fatalf("wave %d rank %d: %v", wave, rank, err)
			}
			if len(img) != imgBytes || img[8] != byte(wave-1) {
				t.Fatalf("wave %d rank %d: %d bytes, page count %d; want %d bytes, %d",
					wave, rank, len(img), img[8], imgBytes, byte(wave-1))
			}
			if wave == waves {
				if sum := binary.LittleEndian.Uint64(img); sum != rep.ResultOf(rank, 0) {
					t.Errorf("rank %d: last wave holds sum %d, the run returned %v", rank, sum, rep.ResultOf(rank, 0))
				}
			}
		}
	}
	if committed == 0 {
		t.Fatal("no committed wave in the store")
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "ckpt-tmp-*"))
	if err != nil || len(tmps) > 0 {
		t.Fatalf("temp files left behind: %v (%v)", tmps, err)
	}
}

// turnHarness counts the waves its writers note and realizes no schedule.
type turnHarness struct{ noted atomic.Int32 }

func (h *turnHarness) noteCkpt(rank, step int) error { h.noted.Add(1); return nil }

func (h *turnHarness) stepHook(*Env, int, func() []byte) {}

// TestWaitingProcessSkipsTurn holds the run's persisting turn elsewhere: a
// captured wave waits for it while its process goes on, and persists
// without it once the process waits for the wave (Flush here; the next
// Checkpoint, a scheduled kill and the process's end wait the same way).
// A writer that does get the turn gives it back.
func TestWaitingProcessSkipsTurn(t *testing.T) {
	store, err := ckpt.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	turn := make(chan struct{}, 1)
	turn <- struct{}{} // another writer's turn
	h := &turnHarness{}
	e := &Env{h: h, store: store, ckptTurn: turn, restoredStep: -1, ranks: 1}
	if err := e.Checkpoint(1, []byte("wave one")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if n := h.noted.Load(); n != 0 {
		t.Fatalf("the wave persisted without the turn while its process went on (%d noted)", n)
	}
	flushed := make(chan error, 1)
	go func() { flushed <- e.Flush() }()
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Flush still waits for a turn another writer holds")
	}
	if img, err := store.Load(0, 1); err != nil || string(img) != "wave one" || h.noted.Load() != 1 {
		t.Fatalf("wave 1 reads %q (%v), %d noted", img, err, h.noted.Load())
	}
	if len(turn) != 1 {
		t.Fatal("the waited-for writer gave back a turn it never took")
	}

	<-turn // the other writer is done
	if err := e.Checkpoint(2, []byte("wave two")); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(turn) != 0 {
		t.Fatal("the writer kept the run's turn after its wave")
	}
}

// BenchmarkCheckpointWaves is the persist layer's own number: a 4-rank,
// r = 2 ring that checkpoints a 256 KiB image after a barrier every few
// steps, one wave per op. every=100 is recovery-ladder-4's interval, where
// the writers persist while the ring steps; every=1 checkpoints back to
// back, as sdrbench's ablation-ckpt and sdrun's per-iteration checkpoints
// do, so each wave waits for the one before. ns/op is the wall time per
// wave, launch included; cpu-ns/wave is the process's user and system time
// per wave.
func BenchmarkCheckpointWaves(b *testing.B) {
	cpu := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			b.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	for _, every := range []int{1, 100} {
		b.Run(fmt.Sprintf("every=%d", every), func(b *testing.B) {
			cfg := Config{Ranks: 4, Protocol: SDR, CheckpointDir: b.TempDir(), Timeout: 10 * time.Minute}
			b.ResetTimer()
			before := cpu()
			rep := Run(cfg, waveRing(b.N*every, every, 256<<10))
			used := cpu() - before
			b.StopTimer()
			if err := rep.FirstError(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(used.Nanoseconds())/float64(b.N), "cpu-ns/wave")
		})
	}
}
