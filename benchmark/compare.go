package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json that -compare needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// halfSpread says how well a metric's reported value repeats inside one
// run: the repetitions are split into odd and even, the median is taken of
// each half, and the halves' difference is given as a share of the whole
// run's value.
func halfSpread(m metricValue) float64 {
	if len(m.Samples) < 4 || m.Value == 0 {
		return 0
	}
	var odd, even []float64
	for i, x := range m.Samples {
		if i%2 == 0 {
			even = append(even, x)
		} else {
			odd = append(odd, x)
		}
	}
	return math.Abs(median(odd)-median(even)) / math.Abs(m.Value)
}

// verdict judges metric value b against a. The change is the share of a's
// value by which b is worse (negative when better); spread is the wider of
// the two sides' half spreads. A pair whose spread exceeds the bound is
// unresolved, not unchanged.
func verdict(a, b metricValue, better string, bound float64) (string, float64, float64) {
	change := (b.Value - a.Value) / math.Abs(a.Value)
	if better == "higher" {
		change = -change
	}
	spread := math.Max(halfSpread(a), halfSpread(b))
	switch {
	case a.Value == 0 || math.IsNaN(change):
		return "unresolved", change, spread
	case spread > bound:
		return "unresolved", change, spread
	case change > bound:
		return "worse", change, spread
	case change < -bound:
		return "better", change, spread
	}
	return "within", change, spread
}

// compareSets prints one row per (end-to-end metric, workload) present in
// both result sets, judged against the metric's bound in the spec, and
// returns non-zero if any row is worse.
func compareSets(specPath, aPath, bPath string, stdout, stderr io.Writer) int {
	var spec benchSpec
	var a, b resultSet
	for _, f := range []struct {
		path string
		into any
	}{{specPath, &spec}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	// Sets measured under different settings are not two measurements of
	// one thing: twice the Ps is about twice the rate on some workloads.
	if a.Meta.GOMAXPROCS != b.Meta.GOMAXPROCS || a.Meta.Seconds != b.Meta.Seconds || a.Meta.Trace != b.Meta.Trace {
		fmt.Fprintf(stderr, "benchmark: result sets are not comparable: a has gomaxprocs=%d seconds=%d trace=%v, b has gomaxprocs=%d seconds=%d trace=%v\n",
			a.Meta.GOMAXPROCS, a.Meta.Seconds, a.Meta.Trace, b.Meta.GOMAXPROCS, b.Meta.Seconds, b.Meta.Trace)
		return 2
	}
	fmt.Fprintf(stdout, "a: %s (seed %d, commit %s)\nb: %s (seed %d, commit %s)\n",
		aPath, a.Meta.Seed, a.Meta.Commit, bPath, b.Meta.Seed, b.Meta.Commit)
	fmt.Fprintf(stdout, "%-20s %-18s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "a", "b", "change", "spread", "bound", "verdict")
	tally := map[string]int{}
	for _, w := range spec.Workloads {
		ra, rb := a.Workloads[w.Name], b.Workloads[w.Name]
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, okA := ra.EndToEnd[m.Name]
			vb, okB := rb.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			v, change, spread := verdict(va, vb, m.Better, m.Bound)
			tally[v]++
			fmt.Fprintf(stdout, "%-20s %-18s %14.6g %14.6g %+8.1f%% %7.1f%% %6.0f%%  %s\n",
				w.Name, m.Name, va.Value, vb.Value, change*100, spread*100, m.Bound*100, v)
		}
		if ra.Failed > 0 || rb.Failed > 0 {
			tally["worse"]++
			fmt.Fprintf(stdout, "%-20s failed operations: a %d of %d, b %d of %d  worse\n",
				w.Name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		}
	}
	fmt.Fprintf(stdout, "within %d  better %d  worse %d  unresolved %d\n",
		tally["within"], tally["better"], tally["worse"], tally["unresolved"])
	if tally["worse"] > 0 {
		return 1
	}
	return 0
}
