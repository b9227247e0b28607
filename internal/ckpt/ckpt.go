// Package ckpt provides application-level checkpointing for replicated
// runs. The paper combines replication with (infrequent) coordinated
// checkpointing: replication makes the loss of *all* replicas of a rank
// rare, and only that event forces a rollback (§1, §4.1). Its §4.1 also
// plans file I/O handling for replicated execution following Böhm &
// Engelmann's redundant-execution I/O work [1]: a write performed by every
// replica must reach stable storage exactly once.
//
// This package implements that storage side: per-rank, per-step checkpoint
// files written atomically by the designated writer replica only (the
// lowest-index alive one), each closed by an 8-byte footer — the CRC-32C
// (Castagnoli) of the payload and a format tag, see Seal — that is checked
// on every load, a coordinated-commit marker per wave so a half-written wave
// is never chosen for restart, and a Latest scan plus GC of superseded waves.
//
// Checkpointing runs underneath replication in every fault-free step, so
// the footer is computed at memory speed: hash/crc32 executes CRC-32C with
// the SSE4.2 / ARMv8 CRC instructions and costs less than the write(2) it
// protects (a byte-serial hash cost about as much as the whole create,
// write and rename). As an error-detecting code it guarantees every burst
// of up to 32 bits and keeps Hamming distance 4 far beyond checkpoint sizes
// (the reason iSCSI, ext4 and Btrfs metadata use it).
package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Store is a directory of checkpoint files, plus the image buffers its
// callers persist from and restore into.
type Store struct {
	dir string

	mu     sync.Mutex // sdr:lockrank images
	images [][]byte   // guarded by mu: buffers ReleaseImage returned
}

// NewStore opens (creating if needed) a checkpoint directory.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(rank, step int) string {
	return filepath.Join(s.dir, fmt.Sprintf("ckpt-r%04d-s%08d.bin", rank, step))
}

// Save persists one rank's state at a step. Only the writer replica calls
// this with write=true; other replicas pass write=false and get exactly-
// once semantics for free (they may instead Verify). The write is atomic
// (temp file + rename) so a crash mid-write never corrupts the previous
// checkpoint.
func (s *Store) Save(rank, step int, data []byte, write bool) error {
	if !write {
		return nil
	}
	if err := s.writeAtomic(s.path(rank, step), data); err != nil {
		return err
	}
	mBytesCkpt.Add(uint64(len(data)))
	return nil
}

// CopyImage copies data into an image buffer the store owns. A writer
// that persists off the application's step path writes from the copy while
// the application goes on changing data. The image buffers are one free
// list per store, shared by CopyImage, Load and LoadLog, so every wave,
// epoch, rollback and relaunch of a run reuses them. They are one size
// class: a request takes the newest buffer when it fits and is no more
// than twice as large, and otherwise gets a new buffer with FooterLen bytes
// of spare capacity, so a writer's image can later hold the sealed file
// of the same state read back.
func (s *Store) CopyImage(data []byte) []byte {
	img := s.takeImage(len(data))
	copy(img, data)
	return img
}

// ReleaseImage hands back a buffer from CopyImage, Load or LoadLog once
// nothing reads it.
func (s *Store) ReleaseImage(img []byte) {
	s.mu.Lock()
	s.images = append(s.images, img)
	s.mu.Unlock()
}

// takeImage returns an n-byte image buffer of n's size class: the newest
// released one when it holds n and is at most twice the size, else a new
// one.
func (s *Store) takeImage(n int) []byte {
	s.mu.Lock()
	if k := len(s.images); k > 0 {
		if img := s.images[k-1]; n <= cap(img) && cap(img) <= 2*(n+FooterLen) {
			s.images = s.images[:k-1]
			s.mu.Unlock()
			return img[:n]
		}
	}
	s.mu.Unlock()
	return make([]byte, n, n+FooterLen)
}

// The footer that closes every checkpoint and message-log file, and every
// frame core's message-log codecs encode: the payload's CRC-32C,
// little-endian, then footerTag. There is one format and no reader for any
// other: bytes written by a build with a different footer fail closed as
// ErrFormat.
const (
	// FooterLen is how many bytes Seal appends to a payload.
	FooterLen = 8
	// footerTag reads "C32C" on disk. It tells "not one of our footers" (a
	// truncated file, a file from an older build) apart from "our footer,
	// damaged payload".
	footerTag uint32 = 'C' | '3'<<8 | '2'<<16 | 'C'<<24
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrFormat reports bytes whose last FooterLen are not a footer this
	// build writes.
	ErrFormat = errors.New("not a footer this build writes — truncated, or written by an older build")
	// ErrCorrupt reports bytes whose footer is well-formed and whose
	// payload does not match its checksum.
	ErrCorrupt = errors.New("checksum mismatch")
)

// Seal computes the footer for payload. With Open it is the only code that
// knows the footer's layout.
func Seal(payload []byte) [FooterLen]byte {
	var footer [FooterLen]byte
	binary.LittleEndian.PutUint32(footer[:4], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint32(footer[4:], footerTag)
	return footer
}

// Open checks the footer that closes raw and returns the payload in front
// of it: ErrFormat when the footer is not one Seal writes, ErrCorrupt when
// the payload fails its checksum. Callers wrap either with what they read.
func Open(raw []byte) ([]byte, error) {
	if len(raw) < FooterLen {
		return nil, ErrFormat
	}
	payload, footer := raw[:len(raw)-FooterLen], raw[len(raw)-FooterLen:]
	if binary.LittleEndian.Uint32(footer[4:]) != footerTag {
		return nil, ErrFormat
	}
	if binary.LittleEndian.Uint32(footer[:4]) != crc32.Checksum(payload, castagnoli) {
		return nil, ErrCorrupt
	}
	return payload, nil
}

// writeAtomic persists data and its sealing footer via a temp file +
// rename, so a crash mid-write never corrupts a previous file under the
// same name. Shared by checkpoint and message-log writes.
func (s *Store) writeAtomic(path string, data []byte) error {
	footer := Seal(data)

	tmp, err := os.CreateTemp(s.dir, "ckpt-tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: %w", err)
	}
	if _, err := tmp.Write(footer[:]); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}

// readVerified reads the sealed file at path into an image buffer with one
// read(2) of the size fstat reports, and hands its payload on only once
// Open has accepted the footer; an error names the file as what and
// returns the buffer to the free list.
func (s *Store) readVerified(path, what string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	raw := s.takeImage(int(fi.Size()))
	var payload []byte
	if _, err = io.ReadFull(f, raw); err == nil {
		payload, err = Open(raw)
	}
	if err != nil {
		s.ReleaseImage(raw)
		return nil, fmt.Errorf("ckpt: %s: %w", what, err)
	}
	return payload, nil
}

// Load reads and verifies one rank's checkpoint at a step. The payload is
// an image buffer of the store's free list: a caller that is done with it
// may hand it back with ReleaseImage, and one that keeps it leaves the
// buffer to the garbage collector.
func (s *Store) Load(rank, step int) ([]byte, error) {
	return s.readVerified(s.path(rank, step), fmt.Sprintf("checkpoint rank %d step %d", rank, step))
}

// Verify checks an existing checkpoint against data a non-writer replica
// computed — the cross-replica output comparison of redundant-execution
// I/O (a mismatch indicates divergence or corruption). The comparison is
// byte for byte: Load has already checked the stored bytes against their
// footer, and comparing a checksum of data with that footer instead would
// accept two different states that share a CRC.
func (s *Store) Verify(rank, step int, data []byte) error {
	stored, err := s.Load(rank, step)
	if err != nil {
		return err
	}
	defer s.ReleaseImage(stored)
	if !bytes.Equal(stored, data) {
		return fmt.Errorf("ckpt: replica state diverges from stored checkpoint (rank %d step %d)", rank, step)
	}
	return nil
}

// Steps lists the checkpointed steps for a rank, ascending.
func (s *Store) Steps(rank int) ([]int, error) {
	return s.stepsOf(kindCkpt, rank)
}

// stepsOf lists the steps for which rank has a file of the given kind,
// ascending.
func (s *Store) stepsOf(kind fileKind, rank int) ([]int, error) {
	var steps []int
	err := s.scan(func(k fileKind, r, step int) {
		if k == kind && r == rank {
			steps = append(steps, step)
		}
	})
	sort.Ints(steps)
	return steps, err
}

// LatestCommon returns the most recent step for which *every* rank in
// 0..ranks-1 has a checkpoint AND the coordinated-commit marker exists —
// the consistent restart line of a coordinated checkpoint — or -1 if none
// exists. Requiring the marker means a wave interrupted mid-write (a rank
// lost before its save, or a writer crashed between ranks) is never chosen
// even if every per-rank file happens to be present and intact. The
// directory is read once, whatever the number of ranks.
func (s *Store) LatestCommon(ranks int) (int, error) {
	saved := map[int]int{} // step → ranks below `ranks` holding a checkpoint
	committed := map[int]bool{}
	err := s.scan(func(k fileKind, rank, step int) {
		switch {
		case k == kindCommit:
			committed[step] = true
		case k == kindCkpt && rank < ranks:
			saved[step]++
		}
	})
	if err != nil {
		return -1, err
	}
	best := -1
	for st := range committed {
		if st > best && saved[st] == ranks {
			best = st
		}
	}
	return best, nil
}

func (s *Store) commitPath(step int) string {
	return filepath.Join(s.dir, fmt.Sprintf("ckpt-commit-s%08d.ok", step))
}

// Commit marks the wave at step as coordinated: every rank's writer has
// completed its save. Idempotent. The marker is empty — its existence is
// the whole signal, so a plain create is already atomic (it cannot be
// observed torn) and no temp-file dance is needed. Until the marker
// exists, LatestCommon will not select the wave.
func (s *Store) Commit(step int) error {
	if err := os.WriteFile(s.commitPath(step), nil, 0o644); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	mCommits.Inc()
	return nil
}

// Committed reports whether the wave at step carries the coordinated-commit
// marker.
func (s *Store) Committed(step int) bool {
	_, err := os.Stat(s.commitPath(step))
	return err == nil
}

// Prune garbage-collects superseded waves: every checkpoint file, per-rank
// message-log (replay-state) file, and commit marker with step < keep is
// removed. The launcher calls it after a new wave commits, so the store
// holds at most the waves still usable for rollback or localized replay —
// without it, repeated waves of a logging-enabled run would leak one mlog
// file per wave forever. In-flight ckpt-tmp-* files are left alone — a
// concurrent writer may own them.
func (s *Store) Prune(keep int) error {
	return s.remove(func(_ fileKind, step int) bool { return step < keep })
}

// remove deletes every file the store wrote for which doomed reports true;
// names the store does not write are never touched.
func (s *Store) remove(doomed func(kind fileKind, step int) bool) error {
	var first error
	err := s.scan(func(kind fileKind, rank, step int) {
		if first != nil || !doomed(kind, step) {
			return
		}
		if err := os.Remove(s.fileName(kind, rank, step)); err != nil && !os.IsNotExist(err) {
			first = fmt.Errorf("ckpt: %w", err)
			return
		}
		if kind == kindLog {
			mPrunedLogs.Inc()
		} else {
			mPruned.Inc()
		}
	})
	if err != nil {
		return err
	}
	return first
}

// fileKind is one of the store's three file families.
type fileKind int

const (
	kindCkpt   fileKind = iota // ckpt-r<rank>-s<step>.bin
	kindLog                    // mlog-r<rank>-s<step>.bin
	kindCommit                 // ckpt-commit-s<step>.ok
)

// fileName is the path of the file parseName takes apart into kind, rank
// and step.
func (s *Store) fileName(kind fileKind, rank, step int) string {
	switch kind {
	case kindCkpt:
		return s.path(rank, step)
	case kindLog:
		return s.logPath(rank, step)
	}
	return s.commitPath(step)
}

// scan reads the directory once and reports every file the store wrote.
func (s *Store) scan(visit func(kind fileKind, rank, step int)) error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	for _, e := range entries {
		if kind, rank, step, ok := parseName(e.Name()); ok {
			visit(kind, rank, step)
		}
	}
	return nil
}

// parseName takes a file name apart into its family, rank (-1 for a commit
// marker) and wave step. It accepts exactly the names path, logPath and
// commitPath produce, so tmp files and foreign files are rejected and no
// two names parse to the same triple.
func parseName(name string) (kind fileKind, rank, step int, ok bool) {
	if num, found := strings.CutPrefix(name, "ckpt-commit-s"); found {
		num, found = strings.CutSuffix(num, ".ok")
		step, ok = parsePadded(num, 8)
		return kindCommit, -1, step, found && ok
	}
	body, found := strings.CutSuffix(name, ".bin")
	if !found {
		return 0, 0, 0, false
	}
	if rest, found := strings.CutPrefix(body, "ckpt-r"); found {
		kind, body = kindCkpt, rest
	} else if rest, found := strings.CutPrefix(body, "mlog-r"); found {
		kind, body = kindLog, rest
	} else {
		return 0, 0, 0, false
	}
	rankNum, stepNum, found := strings.Cut(body, "-s")
	rank, ok = parsePadded(rankNum, 4)
	step, ok2 := parsePadded(stepNum, 8)
	return kind, rank, step, found && ok && ok2
}

// parsePadded parses a non-negative decimal as %0<width>d prints it: digits
// only, zero-padded to width and not beyond.
func parsePadded(num string, width int) (int, bool) {
	if len(num) < width || (len(num) > width && num[0] == '0') {
		return 0, false
	}
	for i := 0; i < len(num); i++ {
		if num[i] < '0' || num[i] > '9' {
			return 0, false
		}
	}
	v, err := strconv.Atoi(num)
	return v, err == nil
}
