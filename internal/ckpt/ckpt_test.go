package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := newTestStore(t)
	data := []byte("state at step 5")
	if err := s.Save(3, 5, data, true); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
}

func TestNonWriterIsNoOp(t *testing.T) {
	s := newTestStore(t)
	if err := s.Save(0, 1, []byte("x"), false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(0, 1); err == nil {
		t.Fatal("non-writer save must not create a file")
	}
}

func TestLoadDetectsCorruption(t *testing.T) {
	s := newTestStore(t)
	if err := s.Save(1, 2, []byte("precious state"), true); err != nil {
		t.Fatal(err)
	}
	// Flip a payload bit on disk.
	path := filepath.Join(s.Dir(), "ckpt-r0001-s00000002.bin")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(1, 2); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestVerifyCrossReplica(t *testing.T) {
	s := newTestStore(t)
	state := []byte("replica state")
	if err := s.Save(0, 7, state, true); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(0, 7, state); err != nil {
		t.Fatalf("identical state must verify: %v", err)
	}
	if err := s.Verify(0, 7, []byte("diverged!")); err == nil {
		t.Fatal("divergent replica state must fail verification")
	}
}

func TestStepsAndLatestCommon(t *testing.T) {
	s := newTestStore(t)
	// Rank 0 checkpointed steps 2, 5, 9; rank 1 only 2 and 5. Waves 2 and
	// 5 are committed; 9 is missing rank 1 and was never committed.
	for _, st := range []int{2, 5, 9} {
		if err := s.Save(0, st, []byte{byte(st)}, true); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range []int{2, 5} {
		if err := s.Save(1, st, []byte{byte(st)}, true); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(st); err != nil {
			t.Fatal(err)
		}
	}
	steps, err := s.Steps(0)
	if err != nil || len(steps) != 3 || steps[2] != 9 {
		t.Fatalf("steps %v err %v", steps, err)
	}
	latest, err := s.LatestCommon(2)
	if err != nil || latest != 5 {
		t.Fatalf("latest common %d err %v (want 5)", latest, err)
	}
	// A rank with no checkpoints drops the common line to none.
	latest, err = s.LatestCommon(3)
	if err != nil || latest != -1 {
		t.Fatalf("latest with missing rank = %d", latest)
	}
}

func TestLatestCommonRequiresCommitMarker(t *testing.T) {
	s := newTestStore(t)
	// Every rank has files for waves 2 and 4, but only wave 2 carries the
	// coordinated-commit marker: wave 4 is a half-written wave whose last
	// save raced a crash. It must never be chosen.
	for rank := 0; rank < 2; rank++ {
		for _, st := range []int{2, 4} {
			if err := s.Save(rank, st, []byte{byte(st)}, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Commit(2); err != nil {
		t.Fatal(err)
	}
	if latest, err := s.LatestCommon(2); err != nil || latest != 2 {
		t.Fatalf("latest = %d err %v (want committed wave 2)", latest, err)
	}
	// A marker without every rank's file (the opposite torn state) is
	// equally unusable.
	if err := s.Save(0, 6, []byte{6}, true); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(6); err != nil {
		t.Fatal(err)
	}
	if latest, _ := s.LatestCommon(2); latest != 2 {
		t.Fatalf("latest = %d: marker without all rank files was chosen", latest)
	}
}

// TestRestartLineAtScale is the coordinator's rollback decision at the
// largest world the launchers run: 256 ranks, three committed waves, one
// rank's file missing from the newest. The restart line is the wave below
// it, and the rank-local pairing sees its own files only.
func TestRestartLineAtScale(t *testing.T) {
	const ranks, missing = 256, 171
	s := newTestStore(t)
	for _, st := range []int{100, 200, 300} {
		for rank := 0; rank < ranks; rank++ {
			if st == 300 && rank == missing {
				continue
			}
			if err := s.Save(rank, st, []byte{byte(rank)}, true); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(st); err != nil {
			t.Fatal(err)
		}
	}
	if latest, err := s.LatestCommon(ranks); err != nil || latest != 200 {
		t.Fatalf("LatestCommon(%d) = %d, %v; want 200", ranks, latest, err)
	}
	// The ranks below the gap do share wave 300.
	if latest, err := s.LatestCommon(missing); err != nil || latest != 300 {
		t.Fatalf("LatestCommon(%d) = %d, %v; want 300", missing, latest, err)
	}
	for _, st := range []int{200, 300} {
		if err := s.SaveLog(missing, st, []byte("replay state")); err != nil {
			t.Fatal(err)
		}
	}
	if st, err := s.LatestLog(missing); err != nil || st != 200 {
		t.Fatalf("LatestLog(%d) = %d, %v; want 200 (wave 300 has no checkpoint)", missing, st, err)
	}
	if st, err := s.LatestLog(missing - 1); err != nil || st != -1 {
		t.Fatalf("LatestLog(%d) = %d, %v; want -1 (another rank's logs)", missing-1, st, err)
	}
}

func TestCommitIdempotentAndPrune(t *testing.T) {
	s := newTestStore(t)
	for _, st := range []int{1, 3, 5} {
		for rank := 0; rank < 2; rank++ {
			if err := s.Save(rank, st, []byte{byte(st)}, true); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(st); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(st); err != nil {
			t.Fatalf("re-commit: %v", err)
		}
	}
	if err := s.Prune(5); err != nil {
		t.Fatal(err)
	}
	// Waves 1 and 3 (files and markers) are gone; wave 5 survives.
	for _, st := range []int{1, 3} {
		if _, err := s.Load(0, st); err == nil {
			t.Fatalf("wave %d file survived pruning", st)
		}
		if s.Committed(st) {
			t.Fatalf("wave %d marker survived pruning", st)
		}
	}
	if latest, err := s.LatestCommon(2); err != nil || latest != 5 {
		t.Fatalf("latest after prune = %d err %v", latest, err)
	}
	got, err := s.Load(1, 5)
	if err != nil || len(got) != 1 || got[0] != 5 {
		t.Fatalf("surviving wave unreadable: %q err %v", got, err)
	}
}

func TestOverwriteSameStep(t *testing.T) {
	s := newTestStore(t)
	s.Save(0, 1, []byte("old"), true)
	s.Save(0, 1, []byte("new"), true)
	got, err := s.Load(0, 1)
	if err != nil || string(got) != "new" {
		t.Fatalf("got %q err %v", got, err)
	}
}

func TestSaveLoadProperty(t *testing.T) {
	s := newTestStore(t)
	step := 0
	f := func(data []byte) bool {
		step++
		if err := s.Save(0, step, data, true); err != nil {
			return false
		}
		got, err := s.Load(0, step)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNewStoreOnFilePath(t *testing.T) {
	// A path occupied by a regular file cannot become a store.
	f := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore(f); err == nil {
		t.Fatal("NewStore on a regular file succeeded")
	}
}

func TestSaveIntoRemovedDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(0, 1, []byte("data"), true); err == nil {
		t.Fatal("Save into a removed directory succeeded")
	}
}

func TestLoadMissingCheckpoint(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(3, 7); err == nil {
		t.Fatal("Load of a missing checkpoint succeeded")
	}
}

func TestLoadTruncatedCheckpoint(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(0, 0, []byte("payload"), true); err != nil {
		t.Fatal(err)
	}
	// Truncate below the 8-byte footer.
	path := filepath.Join(s.Dir(), "ckpt-r0000-s00000000.bin")
	if err := os.Truncate(path, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(0, 0); err == nil {
		t.Fatal("Load of a truncated checkpoint succeeded")
	}
}

func TestLoadFailureModes(t *testing.T) {
	// Table-driven corruption/truncation/partial-rename matrix: every way
	// a checkpoint file can be damaged on disk must surface as a Load
	// error (or, for writer-crash leftovers, be invisible to the scans),
	// never as silently wrong state.
	const payload = "twenty-one bytes here"
	cases := []struct {
		name    string
		damage  func(t *testing.T, s *Store, path string)
		loadErr bool  // Load(0, 0) must fail
		wantErr error // and, when set, with this typed error
		scanned bool  // Steps(0) still lists step 0
	}{
		{
			name: "payload bit flip",
			damage: func(t *testing.T, s *Store, path string) {
				flipByte(t, path, 0)
			},
			loadErr: true, wantErr: ErrCorrupt, scanned: true,
		},
		{
			name: "footer bit flip",
			damage: func(t *testing.T, s *Store, path string) {
				flipByte(t, path, len(payload))
			},
			loadErr: true, wantErr: ErrCorrupt, scanned: true,
		},
		{
			name: "format tag bit flip",
			damage: func(t *testing.T, s *Store, path string) {
				flipByte(t, path, len(payload)+4)
			},
			loadErr: true, wantErr: ErrFormat, scanned: true,
		},
		{
			name: "truncated below footer",
			damage: func(t *testing.T, s *Store, path string) {
				if err := os.Truncate(path, 4); err != nil {
					t.Fatal(err)
				}
			},
			loadErr: true, wantErr: ErrFormat, scanned: true,
		},
		{
			name: "truncated to empty",
			damage: func(t *testing.T, s *Store, path string) {
				if err := os.Truncate(path, 0); err != nil {
					t.Fatal(err)
				}
			},
			loadErr: true, wantErr: ErrFormat, scanned: true,
		},
		{
			name: "payload shortened but footer-sized",
			damage: func(t *testing.T, s *Store, path string) {
				// Drop one payload byte: length stays above the footer
				// minimum, so only the checksum catches it.
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(raw[:1], raw[2:]...), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			loadErr: true, wantErr: ErrCorrupt, scanned: true,
		},
		{
			name: "legacy FNV-64a footer",
			damage: func(t *testing.T, s *Store, path string) {
				// What a build before the CRC-32C footer wrote: payload
				// followed by fnv64a(payload), little-endian. It must
				// fail closed, never load as data.
				h := fnv.New64a()
				h.Write([]byte(payload))
				legacy := binary.LittleEndian.AppendUint64([]byte(payload), h.Sum64())
				if err := os.WriteFile(path, legacy, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			loadErr: true, wantErr: ErrFormat, scanned: true,
		},
		{
			name: "partial rename: writer crashed before rename",
			damage: func(t *testing.T, s *Store, path string) {
				// The atomic-write discipline means a crash mid-save
				// leaves a ckpt-tmp-* file and no final file.
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
				tmp := filepath.Join(s.Dir(), "ckpt-tmp-leftover")
				if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			loadErr: true, scanned: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestStore(t)
			if err := s.Save(0, 0, []byte(payload), true); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, s, filepath.Join(s.Dir(), "ckpt-r0000-s00000000.bin"))
			_, err := s.Load(0, 0)
			if (err != nil) != tc.loadErr {
				t.Fatalf("Load err = %v, want error %v", err, tc.loadErr)
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("Load err = %v, want %v", err, tc.wantErr)
			}
			steps, err := s.Steps(0)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(steps) == 1; got != tc.scanned {
				t.Fatalf("Steps = %v, want scanned %v", steps, tc.scanned)
			}
			// Whatever the damage, the wave was never committed, so the
			// restart line must ignore it.
			if latest, err := s.LatestCommon(1); err != nil || latest != -1 {
				t.Fatalf("damaged uncommitted wave chosen: %d err %v", latest, err)
			}
		})
	}
}

func flipByte(t *testing.T, path string, off int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[off] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestStepsIgnoresForeignFiles(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(1, 5, []byte("a"), true); err != nil {
		t.Fatal(err)
	}
	for _, junk := range []string{"notes.txt", "ckpt-r0001-sBAD.bin", "ckpt-r0001-s00000009.tmp"} {
		if err := os.WriteFile(filepath.Join(s.Dir(), junk), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	steps, err := s.Steps(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 || steps[0] != 5 {
		t.Fatalf("steps = %v, want [5]", steps)
	}
}
