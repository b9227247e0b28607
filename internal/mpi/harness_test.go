package mpi

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// runNative spawns n goroutine processes under the native protocol, runs fn
// on each with its world communicator, and fails the test on panic or on a
// 30s hang.
func runNative(t *testing.T, n int, fn func(c *Comm)) {
	t.Helper()
	nw := transport.NewNetwork(n, nil)
	defer nw.Close()
	runOnNetwork(t, nw, n, fn)
}

func runOnNetwork(t *testing.T, nw *transport.Network, n int, fn func(c *Comm)) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs <- fmt.Errorf("rank %d panicked: %v", i, r)
				}
			}()
			proc := NewProc(nw, transport.ProcID(i))
			world := NewWorld(proc, NewNative(proc), n)
			fn(world)
		}(i)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		// Kill every process so the leaked goroutines unwind (a stuck
		// poller would otherwise starve the remaining tests on
		// few-core hosts), then fail.
		for i := 0; i < n; i++ {
			nw.Kill(transport.ProcID(i))
		}
		<-done
		t.Fatal("deadlock: processes did not finish within 30s")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// mustRaise runs fn and fails the test unless fn raises an argument error
// of the given class: a panic whose text names the class.
func mustRaise(t *testing.T, class int, fn func()) {
	t.Helper()
	defer func() {
		if s, _ := recover().(string); !strings.Contains(s, ClassName(class)) {
			t.Errorf("raised %q, want %s", s, ClassName(class))
		}
	}()
	fn()
}
