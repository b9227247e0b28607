package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLogRoundTrip checks the replay-state file's save/load/latest cycle,
// including that LatestLog only pairs an mlog with an existing checkpoint.
func TestLogRoundTrip(t *testing.T) {
	s := newTestStore(t)
	if st, err := s.LatestLog(1); err != nil || st != -1 {
		t.Fatalf("empty store LatestLog = %d, %v; want -1, nil", st, err)
	}
	if err := s.SaveLog(1, 4, []byte("state-4")); err != nil {
		t.Fatal(err)
	}
	// mlog without its checkpoint: not a usable pair.
	if st, err := s.LatestLog(1); err != nil || st != -1 {
		t.Fatalf("unpaired mlog LatestLog = %d, %v; want -1, nil", st, err)
	}
	if err := s.Save(1, 4, []byte("app-4"), true); err != nil {
		t.Fatal(err)
	}
	if st, err := s.LatestLog(1); err != nil || st != 4 {
		t.Fatalf("LatestLog = %d, %v; want 4, nil", st, err)
	}
	got, err := s.LoadLog(1, 4)
	if err != nil || string(got) != "state-4" {
		t.Fatalf("LoadLog = %q, %v", got, err)
	}
	// Damage must be detected, like a checkpoint's.
	flipByte(t, filepath.Join(s.Dir(), "mlog-r0001-s00000004.bin"), 2)
	if _, err := s.LoadLog(1, 4); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt mlog: LoadLog err = %v, want ErrCorrupt", err)
	}
}

// TestPruneCollectsMessageLogs is the log-leak regression: a logging rank
// checkpoints wave after wave, each with its mlog file; once a wave
// commits, Prune must garbage-collect the superseded mlogs exactly like
// the superseded checkpoints — otherwise the store grows by one replay
// state per wave for the life of the run.
func TestPruneCollectsMessageLogs(t *testing.T) {
	s := newTestStore(t)
	const waves = 6
	for step := 1; step <= waves; step++ {
		for rank := 0; rank < 2; rank++ {
			if err := s.Save(rank, step, []byte{byte(step)}, true); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.SaveLog(1, step, []byte{0x10, byte(step)}); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(step); err != nil {
			t.Fatal(err)
		}
		if err := s.Prune(step); err != nil {
			t.Fatal(err)
		}
		steps, err := s.LogSteps(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(steps) != 1 || steps[0] != step {
			t.Fatalf("after wave %d: LogSteps = %v, want [%d] (log leak)", step, steps, step)
		}
	}
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	mlogs := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "mlog-") {
			mlogs++
		}
	}
	if mlogs != 1 {
		t.Fatalf("%d mlog files survive %d waves, want 1", mlogs, waves)
	}
	if st, err := s.LatestLog(1); err != nil || st != waves {
		t.Fatalf("LatestLog = %d, %v; want %d", st, err, waves)
	}
}

// TestPruneLogsKeepsForeignFiles: PruneLogs deletes the replay states the
// store wrote and nothing else, reading the directory through the same
// name parser as Prune, so a foreign mlog-*.bin name stays.
func TestPruneLogsKeepsForeignFiles(t *testing.T) {
	s := newTestStore(t)
	if err := s.SaveLog(1, 4, []byte("state")); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(1, 4, []byte("image"), true); err != nil {
		t.Fatal(err)
	}
	foreign := []string{"mlog-notes.bin", "mlog-r0001-sBAD.bin"}
	for _, name := range foreign {
		if err := os.WriteFile(filepath.Join(s.Dir(), name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PruneLogs(); err != nil {
		t.Fatal(err)
	}
	if steps, err := s.LogSteps(1); err != nil || len(steps) != 0 {
		t.Fatalf("LogSteps after PruneLogs = %v, %v; want none", steps, err)
	}
	for _, name := range append(foreign, filepath.Base(s.path(1, 4))) {
		if _, err := os.Stat(filepath.Join(s.Dir(), name)); err != nil {
			t.Errorf("PruneLogs removed %s: %v", name, err)
		}
	}
}

// TestLogStepsIgnoresForeignFiles mirrors the checkpoint scanner's
// robustness for the mlog namespace.
func TestLogStepsIgnoresForeignFiles(t *testing.T) {
	s := newTestStore(t)
	if err := s.SaveLog(2, 7, []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, junk := range []string{"mlog-r0002-sBAD.bin", "mlog-r0002-s00000008.tmp"} {
		if err := os.WriteFile(filepath.Join(s.Dir(), junk), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	steps, err := s.LogSteps(2)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(steps) != "[7]" {
		t.Fatalf("LogSteps = %v, want [7]", steps)
	}
}
