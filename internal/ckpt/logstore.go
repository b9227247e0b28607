package ckpt

import (
	"fmt"
	"path/filepath"
)

// The per-rank message-log side of the store, backing the recovery
// ladder's localized-replay rung. Alongside each checkpoint wave, a
// logging-enabled (degree-1) rank persists its *replay state* — the
// protocol sequence counters plus every admitted-but-unconsumed message,
// encoded by internal/core's log-record codec — as an mlog file. A
// localized restart loads the rank's newest (checkpoint, mlog) pair; the
// survivors' in-memory sender logs supply everything newer.
//
// The files ride the same wave lifecycle as checkpoints: written
// atomically with an integrity footer, garbage-collected by Prune once a
// newer wave commits. Only the NEWEST pair is ever usable — senders
// truncate their logs on the rank's checkpoint acknowledgement, so an
// older pair's replay would ask for log entries that no longer exist;
// callers must treat any load/decode failure of the newest pair as
// "localized replay unavailable" and fall back to a global rollback.

func (s *Store) logPath(rank, step int) string {
	return filepath.Join(s.dir, fmt.Sprintf("mlog-r%04d-s%08d.bin", rank, step))
}

// SaveLog atomically persists one rank's encoded replay state for a wave.
func (s *Store) SaveLog(rank, step int, data []byte) error {
	if err := s.writeAtomic(s.logPath(rank, step), data); err != nil {
		return err
	}
	mBytesLog.Add(uint64(len(data)))
	return nil
}

// LoadLog reads and integrity-checks one rank's replay state at a step,
// into an image buffer the way Load does (a replay state is far smaller
// than a checkpoint image, so it takes a new buffer unless one of its size
// class was handed back). The returned bytes still carry the codec-level
// checksum; decode them with core.ValidateReplayState /
// RestoreReplayState, which fail closed.
func (s *Store) LoadLog(rank, step int) ([]byte, error) {
	return s.readVerified(s.logPath(rank, step), fmt.Sprintf("message log rank %d step %d", rank, step))
}

// LogSteps lists the steps with a persisted replay state for a rank,
// ascending.
func (s *Store) LogSteps(rank int) ([]int, error) {
	return s.stepsOf(kindLog, rank)
}

// PruneLogs removes EVERY per-rank replay-state file, regardless of step.
// The launcher calls it when seeding a global rollback: replay states are
// epoch-relative (their sequence counters count from the epoch's fresh
// processes, while checkpointed app state is step-deterministic), so a
// state captured before the rollback must never seed a localized relaunch
// in the new epoch — a logging rank dying there before its first new
// checkpoint must fail closed into another rollback, not restore stale
// counters and desynchronize from the restarted survivors.
func (s *Store) PruneLogs() error {
	return s.remove(func(kind fileKind, _ int) bool { return kind == kindLog })
}

// LatestLog returns the newest step for which rank has BOTH a checkpoint
// and a replay-state file — the only wave a localized replay may restart
// from — or -1 when none exists.
func (s *Store) LatestLog(rank int) (int, error) {
	const hasCkpt, hasLog = 1, 2
	have := map[int]int{}
	err := s.scan(func(k fileKind, r, step int) {
		switch {
		case r != rank:
		case k == kindCkpt:
			have[step] |= hasCkpt
		case k == kindLog:
			have[step] |= hasLog
		}
	})
	if err != nil {
		return -1, err
	}
	best := -1
	for st, got := range have {
		if st > best && got == hasCkpt|hasLog {
			best = st
		}
	}
	return best, nil
}
