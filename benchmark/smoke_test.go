package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"testing"
)

// smokeSizes runs every workload in well under a second. The shapes are
// the real ones except the mesh, which is built at 16 ranks.
var smokeSizes = sizes{
	pingpongTrips: 200, pingpongWarm: 20,
	streamTrips: 20, streamWarm: 4,
	cgSolves: 2, cgIters: 5,
	hpccgSolves: 2, hpccgIters: 3,
	meshRanks: 16, meshIters: 40,
	ladder: ladderSizes{steps: 800, warmSteps: 20, every: 20, ckptBytes: 4 << 10, replays: 3, rollbacks: 2},
}

// wantLayer lists, per workload, per-layer metrics a traced run must emit
// beyond the counts every workload has: the ones ISSUE 11 pins to it.
var wantLayer = map[string][]string{
	"pingpong-64B":       {"mpi.send_us_p50", "mpi.recv_us_p50", "core.send_extra_us_p50", "core.recv_extra_us_p50", "core.rtt_p99_us", "core.rtt_p99.9_us", "core.slowdown_x", "core.acks_per_app_msg", "mpi.allocs_per_msg", "cluster.launch_s"},
	"stream-256K-tcp":    {"mpi.send_us_p50", "core.send_extra_us_p50", "transport.frames_per_flush", "transport.bytes_per_flush", "transport.bytes_out"},
	"cg-inproc-8":        {"apps.kernel_s_max", "apps.rank_skew_pct", "apps.iterations", "core.acks_coalesced_share"},
	"hpccg-anysrc-tcp-8": {"apps.kernel_s_max", "apps.iterations", "transport.frames_per_flush", "transport.flushes"},
	"wire-ring-128":      {"transport.mesh_build_s", "transport.first_exchange_s", "transport.send_ns_p50", "transport.flush_us_p50", "transport.drain_ns_per_msg", "transport.wait_share", "transport.ring_frame_share", "transport.pool_hit_ratio"},
	"recovery-ladder-4": {"mpi.waitall_us_p50", "mpi.barrier_us_p50", "core.substitutions", "core.replayed_msgs", "core.msglog_peak_B",
		"cluster.subst_stall_ms", "cluster.replay_relaunch_ms_p50", "cluster.replay_catchup_ms_p50", "cluster.rollback_ms_p50", "cluster.recovery_s", "cluster.restarts", "cluster.replays",
		"ckpt.save_ms_p50", "ckpt.store_save_MB_per_s", "ckpt.store_load_MB_per_s", "ckpt.bytes_written", "ckpt.waves_committed", "ckpt.pruned"},
}

func TestSmoke(t *testing.T) {
	emitted := map[string]bool{}
	for _, w := range workloads(smokeSizes) {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := runWorkload(w, options{seed: 7, trace: traced, outDir: t.TempDir(), minReps: 2})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", res.Correct, res.Attempted, res.Failed, res.Errors)
				}
				for _, d := range endToEnd {
					m, ok := res.EndToEnd[d.Name]
					if ok != w.defines(d.Name) {
						t.Errorf("end-to-end metric %s: reported %v, defined here %v", d.Name, ok, w.defines(d.Name))
					}
					if ok && !(m.Value > 0 && !math.IsInf(m.Value, 0)) {
						t.Errorf("end-to-end metric %s = %v, want finite and positive", d.Name, m.Value)
					}
				}
				for n, m := range res.PerLayer {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("per-layer metric %s = %v", n, m.Value)
					}
				}
				if !traced {
					return
				}
				for n := range res.PerLayer {
					emitted[n] = true
				}
				for _, n := range append([]string{"trace.overhead_pct", "trace.spans"}, wantLayer[w.name]...) {
					if _, ok := res.PerLayer[n]; !ok {
						t.Errorf("traced run did not emit %s", n)
					}
				}
				checkIsolation(t, w.name, res)
			})
		}
	}
	for _, d := range perLayer {
		if !emitted[d.Name] {
			t.Errorf("no workload emitted per-layer metric %s", d.Name)
		}
	}
}

// checkIsolation asserts what ISSUE 11 predicts each layer does NOT do:
// the in-process workloads never flush a socket or ring, only the ladder
// writes checkpoints, and every mesh frame rides a ring.
func checkIsolation(t *testing.T, name string, res *result) {
	get := func(metric string) float64 { return res.PerLayer[metric].Value }
	switch name {
	case "pingpong-64B", "cg-inproc-8":
		if v := get("transport.flushes"); v != 0 {
			t.Errorf("%s: transport.flushes = %v on the in-process wire", name, v)
		}
	case "wire-ring-128":
		if v := get("transport.ring_frame_share"); v != 1 {
			t.Errorf("transport.ring_frame_share = %v, want 1", v)
		}
	}
	if name != "recovery-ladder-4" {
		if v := get("ckpt.bytes_written"); v != 0 {
			t.Errorf("%s: ckpt.bytes_written = %v", name, v)
		}
		for _, n := range []string{"transport.dropped_msgs", "transport.redials"} {
			if v := get(n); v != 0 {
				t.Errorf("%s: %s = %v", name, n, v)
			}
		}
	}
}

// TestSpecMatches keeps BENCHMARK.json and the program's metric tables in
// step: same workloads, same metric names, units and directions.
func TestSpecMatches(t *testing.T) {
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	ws := workloads(fullSizes)
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("spec lists %d workloads, program has %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: spec %q, program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("spec has %d+%d metrics, program %d+%d", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		m := spec.EndToEnd[i]
		if (metricDef{m.Name, m.Unit, m.Better}) != d || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: spec %+v, program %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		m := spec.PerLayer[i]
		if (metricDef{m.Name, m.Unit, m.Better}) != d {
			t.Errorf("per-layer %d: spec %+v, program %+v", i, m, d)
		}
	}
}

// TestContractLine checks the one line the driver reads: exactly the four
// keys, and every metric of the mode named — a finite, positive stand-in
// for an end-to-end metric the workload does not define.
func TestContractLine(t *testing.T) {
	e2e := map[string]metricValue{}
	for _, n := range commonCells {
		e2e[n] = metricValue{Value: 1.5}
	}
	set := resultSet{Workloads: map[string]*result{"w": {
		Correct: true, Attempted: 3, EndToEnd: e2e, PerLayer: map[string]metricValue{},
	}}}
	for _, traced := range []bool{false, true} {
		var buf bytes.Buffer
		if err := printContractLine(&buf, set, traced); err != nil {
			t.Fatal(err)
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 {
			t.Errorf("contract line has keys %v", line)
		}
		var metrics map[string]contractMetric
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(metrics) != len(defs) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := metrics[d.Name]
			if !ok || m.Unit != d.Unit || (!traced && m.Value <= 0) {
				t.Errorf("traced=%v: metric %s = %+v (present %v)", traced, d.Name, m, ok)
			}
		}
	}
}

// TestCompareRefusesMixedSettings: sets measured on different numbers of Ps
// are not judged against each other.
func TestCompareRefusesMixedSettings(t *testing.T) {
	dir := t.TempDir()
	paths := make([]string, 2)
	for i := range paths {
		paths[i] = filepath.Join(dir, string(rune('a'+i))+".json")
		set := resultSet{Meta: meta{GOMAXPROCS: i + 1, Seconds: 18}, Workloads: map[string]*result{}}
		if err := writeJSON(paths[i], set); err != nil {
			t.Fatal(err)
		}
	}
	var out, errOut bytes.Buffer
	spec := filepath.Join("..", "BENCHMARK.json")
	if code := compareSets(spec, paths[0], paths[1], &out, &errOut); code != 2 {
		t.Errorf("different GOMAXPROCS: exit %d, want 2 (stderr %q)", code, errOut.String())
	}
	if code := compareSets(spec, paths[0], paths[0], &out, &errOut); code != 0 {
		t.Errorf("a set against itself: exit %d, want 0", code)
	}
}

func TestVerdict(t *testing.T) {
	mv := func(v float64, samples ...float64) metricValue { return metricValue{Value: v, Samples: samples} }
	steady := []float64{100, 101, 99, 100, 100, 101, 99, 100}
	for _, c := range []struct {
		a, b   metricValue
		better string
		want   string
	}{
		{mv(100, steady...), mv(104, steady...), "lower", "within"},
		{mv(100, steady...), mv(115, steady...), "lower", "worse"},
		{mv(100, steady...), mv(85, steady...), "lower", "better"},
		{mv(100, steady...), mv(85, steady...), "higher", "worse"},
		{mv(100, 60, 140, 60, 140, 60, 140), mv(115, steady...), "lower", "unresolved"},
	} {
		if got, _, _ := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("verdict(%v → %v, %s) = %s, want %s", c.a.Value, c.b.Value, c.better, got, c.want)
		}
	}
}

func TestSpansNest(t *testing.T) {
	rec := newRecorder()
	root := rec.root(spanRun, "x")
	p := root.proc(0, 0)
	s := p.begin()
	p.leaf(spanSend, s)
	p.close()
	root.end()
	spans, labels := rec.take()
	if st := foldSpans(spans, labels); st.nestErr != "" || st.count != 3 {
		t.Fatalf("well-formed spans: %+v", st)
	}
	// A child that outlives its parent must be reported.
	for i := range spans {
		if spans[i].Kind == spanSend {
			spans[i].End += 1e9
		}
	}
	if st := foldSpans(spans, labels); st.nestErr == "" {
		t.Fatal("a leaf ending after its parent was not reported")
	}
}
