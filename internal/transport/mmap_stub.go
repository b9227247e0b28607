//go:build !unix

package transport

import (
	"errors"
	"os"
)

// No rings, so nobody to wake: the doorbell types exist only so that the
// code that would use them compiles.
type (
	bell       struct{}
	bellRinger struct{}
)

func newBell(string) (*bell, error)    { return nil, errors.ErrUnsupported }
func (*bell) wait()                    {}
func (*bell) close()                   {}
func newBellRinger(string) *bellRinger { return nil }
func (*bellRinger) ring()              {}
func (*bellRinger) close()             {}

// ringSupported reports whether the colocated shared-memory ring transport
// can be used on this platform. Without a shared file-backed mmap the peer
// wire falls back to loopback TCP for every pair.
func ringSupported() bool { return false }

func mapFile(*os.File, int) ([]byte, error) {
	return nil, errors.New("transport: shared-memory ring unsupported on this platform")
}

func unmapFile([]byte) error { return nil }
