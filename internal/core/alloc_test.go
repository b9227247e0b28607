package core

import (
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/mpi"
)

// raceEnabled reports whether the test binary was built with -race, whose
// runtime allocates on its own.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// allocsPerRun is testing.AllocsPerRun with the bytes beside the objects,
// both rounded rather than truncated: it counts every goroutine's
// allocations, and the partners' straddle the window's two edges. warm
// runs come first, so that every process has filled its pools and caches,
// and the collector is off in the window, so that none is emptied in it.
// What is left of the runtime's own allocations — a new OS thread, the
// sudogs of parked goroutines — reads as a byte or two per run.
func allocsPerRun(warm, runs int, f func()) (objs, bytes float64) {
	for i := 0; i < warm; i++ {
		f()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return math.Round(float64(after.Mallocs-before.Mallocs) / float64(runs)),
		math.Round(float64(after.TotalAlloc-before.TotalAlloc) / float64(runs))
}

// roundTripAllocs runs 64 B ping-pongs between the two ranks of an SDR
// r=2 world and returns the allocations one round trip costs, all four
// processes together: objects and bytes.
func roundTripAllocs(t *testing.T, opts Options) (objs, bytes float64) {
	const warm, runs = 100, 10000
	miniWorld(t, 2, 2, ModeParallel, opts, func(c *mpi.Comm, p *Replicated) {
		buf := make([]byte, 64)
		if c.Rank() == 1 {
			for i := 0; i < warm+runs; i++ {
				c.Recv(0, 0, buf)
				c.Send(0, 1, buf)
			}
			return
		}
		roundTrip := func() {
			c.Send(1, 0, buf)
			c.Recv(1, 1, buf)
		}
		if p.Rep() != 0 {
			for i := 0; i < warm+runs; i++ {
				roundTrip()
			}
			return
		}
		objs, bytes = allocsPerRun(warm, runs, roundTrip)
	})
	return objs, bytes
}

func TestReplicatedRoundTripAllocs(t *testing.T) {
	// Every process of an SDR r=2 round trip allocates one PReq, for its
	// receive: four in all, of 112 bytes each. Blocking calls keep their
	// Request on the stack; acks, envelopes, payload copies and retention
	// entries are recycled. The runtime's own allocations read a byte
	// or two more (see allocsPerRun); a PReq in the next class would add 64.
	if raceEnabled() {
		t.Skip("the race runtime allocates")
	}
	objs, bytes := roundTripAllocs(t, Options{})
	if objs != 4 {
		t.Errorf("SDR r=2 64 B round trip: %v allocations, want 4", objs)
	}
	if bytes < 4*112 || bytes >= 4*112+8 {
		t.Errorf("SDR r=2 64 B round trip: %v bytes allocated, want %d (four 112-byte PReqs) and under 8 more", bytes, 4*112)
	}
}

func TestAckOnWaitReceiveAllocs(t *testing.T) {
	// The AckOnWait ablation's completion hook is bound once: deferring
	// the ack to Wait costs a receive no allocation.
	if raceEnabled() {
		t.Skip("the race runtime allocates")
	}
	base, _ := roundTripAllocs(t, Options{})
	if got, _ := roundTripAllocs(t, Options{AckOnWait: true}); got != base {
		t.Errorf("round trip under AckOnWait: %v allocations, %v without", got, base)
	}
}
