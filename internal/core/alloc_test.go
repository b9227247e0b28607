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

// allocsPerRun is testing.AllocsPerRun rounded rather than truncated: it
// counts every goroutine's allocations, and the partners' straddle the
// window's two edges.
func allocsPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return math.Round(float64(after.Mallocs-before.Mallocs) / float64(runs))
}

// roundTripAllocs runs 64 B ping-pongs between the two ranks of an SDR
// r=2 world and returns the allocations one round trip costs, all four
// processes together.
func roundTripAllocs(t *testing.T, opts Options) float64 {
	const runs = 1000
	var got float64
	miniWorld(t, 2, 2, ModeParallel, opts, func(c *mpi.Comm, p *Replicated) {
		buf := make([]byte, 64)
		if c.Rank() == 1 {
			for i := 0; i < runs+1; i++ { // allocsPerRun adds a warm-up run
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
			for i := 0; i < runs+1; i++ {
				roundTrip()
			}
			return
		}
		got = allocsPerRun(runs, roundTrip)
	})
	return got
}

func TestReplicatedRoundTripAllocs(t *testing.T) {
	// Every process of an SDR r=2 round trip allocates one PReq, for its
	// receive: four in all. Blocking calls keep their Request on the
	// stack; acks, envelopes, payload copies and retention entries are
	// recycled.
	if raceEnabled() {
		t.Skip("the race runtime allocates")
	}
	if got := roundTripAllocs(t, Options{}); got != 4 {
		t.Errorf("SDR r=2 64 B round trip: %v allocations, want 4", got)
	}
}

func TestAckOnWaitReceiveAllocs(t *testing.T) {
	// The AckOnWait ablation's completion hook is bound once: deferring
	// the ack to Wait costs a receive no allocation.
	if raceEnabled() {
		t.Skip("the race runtime allocates")
	}
	base := roundTripAllocs(t, Options{})
	if got := roundTripAllocs(t, Options{AckOnWait: true}); got != base {
		t.Errorf("round trip under AckOnWait: %v allocations, %v without", got, base)
	}
}
