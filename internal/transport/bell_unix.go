//go:build unix

package transport

import (
	"errors"
	"fmt"
	"os"
	"syscall"
	"time"
)

// The ring consumer's doorbell: a named FIFO beside the ring files, so that
// nothing has to be passed between processes — a producer finds its
// consumer's bell by name, the way it finds the ring.
//
// Why a file the netpoller can watch, and neither a futex on a word of the
// mapping nor a timer: a raw futex wait enters the kernel through a plain
// syscall, which pins an OS thread (and, until sysmon retakes it, a P) per
// blocked scanner — one per wire, 128 in the in-process mesh; a sleeping
// goroutine wakes on the runtime's timer granularity, which in a process
// whose Ps are idle is the netpoller's 1 ms epoll_wait, fifty times a
// loopback TCP round trip. A read on a pollable os.File parks the goroutine
// in the netpoller, wakes it when the byte arrives, is interrupted by Close,
// and takes a deadline.

// bell is the consumer's end.
type bell struct {
	f     *os.File
	armed bool // a read deadline is set and has not expired yet
	buf   [64]byte
}

// newBell creates the FIFO at path (or adopts one already there) and opens
// it read-write, so that it never reads EOF and a producer's open never
// finds it without a reader.
func newBell(path string) (*bell, error) {
	if err := syscall.Mkfifo(path, 0o600); err != nil && !errors.Is(err, syscall.EEXIST) {
		return nil, fmt.Errorf("transport: ring doorbell %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|syscall.O_NONBLOCK, 0)
	if err != nil {
		return nil, fmt.Errorf("transport: ring doorbell: %w", err)
	}
	// Where the runtime cannot poll a FIFO, a read would hold an OS thread
	// and Close could not interrupt it: no doorbell, hence no rings.
	if err := f.SetReadDeadline(time.Time{}); err != nil {
		f.Close()
		return nil, fmt.Errorf("transport: ring doorbell %s: %w", path, err)
	}
	return &bell{f: f}, nil
}

// wait blocks until a bell rings, close is called, or the backstop deadline
// passes, and swallows the bells that have rung. The deadline is re-armed
// only once it has expired, not per call: the wait is then bounded by at
// most — rather than exactly — ringBellBackstop, for one timer update per
// period instead of one per wake-up.
func (b *bell) wait() {
	if !b.armed {
		b.armed = b.f.SetReadDeadline(time.Now().Add(ringBellBackstop)) == nil
	}
	if _, err := b.f.Read(b.buf[:]); err != nil {
		b.armed = false
	}
}

// close wakes a blocked wait and releases the descriptor. The FIFO's name
// stays, like the ring files', for the owner of the directory to remove.
func (b *bell) close() { b.f.Close() }

// bellRinger is a producer's end of its consumer's doorbell: a raw
// non-blocking descriptor, opened by the first ring. Raw, because a write
// through a pollable os.File parks the caller until a full pipe drains, and
// the caller holds its link's lock.
type bellRinger struct {
	path string
	fd   int // -2 = not opened yet, -1 = will not open
}

func newBellRinger(path string) *bellRinger { return &bellRinger{path: path, fd: -2} }

// ring writes one byte to the doorbell. Every failure is ignored: the FIFO
// is missing or has no reader (a consumer without a doorbell, or gone), or
// is full of bells nobody has read yet. The consumer's backstop, the stall
// timeout and the ban own those cases.
func (r *bellRinger) ring() {
	if r == nil {
		return
	}
	if r.fd == -2 {
		var err error
		if r.fd, err = syscall.Open(r.path, syscall.O_WRONLY|syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0); err != nil {
			r.fd = -1
		}
	}
	if r.fd < 0 {
		return
	}
	one := [1]byte{1}
	if n, _ := syscall.Write(r.fd, one[:]); n == 1 {
		mRingBells.Inc()
	}
}

func (r *bellRinger) close() {
	if r != nil && r.fd >= 0 {
		syscall.Close(r.fd)
		r.fd = -1
	}
}
