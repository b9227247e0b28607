package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// region is one timed region shared by the process goroutines of a run:
// barrier to barrier. The first process through the opening barrier
// samples the clock and the process CPU time; every process samples again
// after the closing barrier and the latest sample stands, so the region
// ends with the slowest process — without the benchmark having to know how
// many processes a faulted run has left.
type region struct {
	mu         sync.Mutex
	started    bool
	t0, t1     time.Time
	cpu0, cpu1 time.Duration
}

// heapSample is the allocator's running totals. Reading them stops the
// world, so they are sampled around a whole run, never inside a region.
type heapSample struct {
	bytes, objects uint64
}

func sampleHeap() heapSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapSample{bytes: ms.TotalAlloc, objects: ms.Mallocs}
}

// since is what was allocated after an earlier sample.
func (h heapSample) since(earlier heapSample) heapSample {
	return heapSample{bytes: h.bytes - earlier.bytes, objects: h.objects - earlier.objects}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (r *region) begin() {
	r.mu.Lock()
	if !r.started {
		r.started = true
		r.cpu0 = cpuTime()
		r.t0 = time.Now()
	}
	r.mu.Unlock()
}

func (r *region) end() {
	now := time.Now()
	r.mu.Lock()
	r.t1 = now
	r.cpu1 = cpuTime()
	r.mu.Unlock()
}

func (r *region) wall() float64  { return r.t1.Sub(r.t0).Seconds() }
func (r *region) cpu() float64   { return (r.cpu1 - r.cpu0).Seconds() }
func (r *region) complete() bool { return r.started && r.t1.After(r.t0) }

// median returns the median of xs (NaN when empty). xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when empty). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quantilesUs returns the requested quantiles of ns-valued samples, in µs.
func quantilesUs(ns []int64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(ns) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	s := make([]float64, len(ns))
	for i, v := range ns {
		s[i] = float64(v)
	}
	sort.Float64s(s)
	for i, q := range qs {
		out[i] = sortedQuantile(s, q) / 1e3
	}
	return out
}
