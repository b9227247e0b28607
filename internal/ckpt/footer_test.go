package ckpt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// sealed returns payload with the footer Seal computes for it appended: the
// bytes of a file the store wrote.
func sealed(payload []byte) []byte {
	footer := Seal(payload)
	return append(append([]byte(nil), payload...), footer[:]...)
}

// TestFooterGoldenVector pins the on-disk format: the last 8 bytes of a
// saved file are the payload's CRC-32C (Castagnoli), little-endian, then the
// format tag. 0xE3069283 is the check value every CRC-32C catalogue lists
// for "123456789".
func TestFooterGoldenVector(t *testing.T) {
	payload := []byte("123456789")
	want := []byte{0x83, 0x92, 0x06, 0xE3, 'C', '3', '2', 'C'}

	s := newTestStore(t)
	if err := s.Save(0, 1, payload, true); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveLog(0, 1, payload); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{s.path(0, 1), s.logPath(0, 1)} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, append(append([]byte(nil), payload...), want...)) {
			t.Fatalf("%s holds % x, want payload then % x", filepath.Base(path), raw, want)
		}
	}
}

// TestRoundTripSizeExtremes covers the two ends the property test does not
// reach: an empty payload (a file that is nothing but its footer) and one
// large enough for hash/crc32's interleaved wide-buffer path.
func TestRoundTripSizeExtremes(t *testing.T) {
	big := make([]byte, 16<<20)
	for i := range big {
		big[i] = byte(i * 131)
	}
	s := newTestStore(t)
	for step, data := range [][]byte{{}, big} {
		if err := s.Save(0, step, data, true); err != nil {
			t.Fatal(err)
		}
		got, err := s.Load(0, step)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%d-byte payload: got %d bytes, err %v", len(data), len(got), err)
		}
		if err := s.Verify(0, step, data); err != nil {
			t.Fatalf("%d-byte payload: %v", len(data), err)
		}
	}
}

// FuzzReadVerified feeds arbitrary file contents to the one load path:
// it never panics, fails only with the two typed errors, and whatever it
// does accept re-seals to exactly the bytes on disk — so no mutation of a
// sealed file is ever handed on as data.
func FuzzReadVerified(f *testing.F) {
	for _, n := range []int{0, 1, 4 << 10} {
		f.Add(sealed(bytes.Repeat([]byte{0xA5}, n)))
	}
	// One file rewritten in place: replacing it (O_TRUNC or rename) makes
	// ext4 flush the old blocks and costs a millisecond per input.
	file, err := os.Create(filepath.Join(f.TempDir(), "fuzz.bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { file.Close() })
	s, err := NewStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if _, err := file.WriteAt(raw, 0); err != nil {
			t.Fatal(err)
		}
		if err := file.Truncate(int64(len(raw))); err != nil {
			t.Fatal(err)
		}
		payload, err := s.readVerified(file.Name(), "fuzz input")
		if err != nil {
			if !errors.Is(err, ErrFormat) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if resealed := sealed(payload); !bytes.Equal(resealed, raw) {
			t.Fatalf("accepted % x, which re-seals to % x", raw, resealed)
		}
		s.ReleaseImage(payload)
	})
}

// The store's layer figures without the yardstick: one 256 KiB image (the
// size recovery-ladder-4 checkpoints) saved, and loaded, per iteration.
const benchImage = 256 << 10

// BenchmarkStoreSave writes every image under a new step, as a run does
// (saving over an existing name would time ext4's flush-on-replace, not
// the store), and prunes off the clock so the directory stays small.
func BenchmarkStoreSave(b *testing.B) {
	s, err := NewStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5A}, benchImage)
	b.SetBytes(benchImage)
	step := 0
	for b.Loop() {
		step++
		if err := s.Save(0, step, data, true); err != nil {
			b.Fatal(err)
		}
		if step%64 == 0 {
			b.StopTimer()
			if err := s.Prune(step); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkStoreLoad reads one checkpoint back per iteration and hands the
// image back, as a restore does once nothing reads it: what it times is
// the read and the footer check, not the garbage collector sweeping one
// image-sized allocation per load.
func BenchmarkStoreLoad(b *testing.B) {
	s, err := NewStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Save(0, 1, bytes.Repeat([]byte{0x5A}, benchImage), true); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchImage)
	for b.Loop() {
		img, err := s.Load(0, 1)
		if err != nil {
			b.Fatal(err)
		}
		s.ReleaseImage(img)
	}
}

// raceEnabled reports whether the test binary was built with -race, whose
// runtime allocates on its own.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// TestStoreLoadAllocs pins the restore path's allocation: a checkpoint
// read back lands in an image buffer from the store's free list, so once
// one cycle of Load and ReleaseImage has run, a further cycle allocates
// only the file handle and the names, not the image.
func TestStoreLoadAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race runtime allocates")
	}
	s := newTestStore(t)
	if err := s.Save(0, 1, bytes.Repeat([]byte{0x5A}, benchImage), true); err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		img, err := s.Load(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		s.ReleaseImage(img)
	}
	cycle()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if perCycle := (after.TotalAlloc - before.TotalAlloc) / runs; perCycle >= 4<<10 {
		t.Fatalf("a Load+ReleaseImage cycle allocates %d B, want under 4 KiB", perCycle)
	}
}

// TestLoadReusesWriterImage pins the footer room and the size class: a
// writer's image buffer, handed back after its wave persisted, holds the
// sealed file of the same state, so a restore reads into it instead of
// allocating, and a replay state read in between does not take it.
func TestLoadReusesWriterImage(t *testing.T) {
	s := newTestStore(t)
	img := s.CopyImage(bytes.Repeat([]byte{0xA5}, benchImage))
	if err := s.Save(2, 4, img, true); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveLog(2, 4, []byte("replay state")); err != nil {
		t.Fatal(err)
	}
	s.ReleaseImage(img)
	if state, err := s.LoadLog(2, 4); err != nil || string(state) != "replay state" {
		t.Fatalf("LoadLog = %q, %v", state, err)
	}
	got, err := s.Load(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &img[0] || !bytes.Equal(got, bytes.Repeat([]byte{0xA5}, benchImage)) {
		t.Fatal("the restore did not read into the writer's released image")
	}
}
