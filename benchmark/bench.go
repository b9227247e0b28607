package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// metricDef names one reported metric. Bounds live in BENCHMARK.json only;
// the smoke test checks that the two lists agree.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd is what a user of the system sees. The first five are measured
// on every workload; a workload names the others it defines (workload.cells,
// the matrix of ISSUE 11) and reports no other.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"native_wall_s", "s", "lower"},
	{"faultfree_wall_s", "s", "lower"},
	{"msgs_per_s", "1/s", "higher"},
	{"payload_MB_per_s", "MB/s", "higher"},
	{"rtt_p50_us", "us", "lower"},
	{"rtt_p90_us", "us", "lower"},
	{"native_rtt_p50_us", "us", "lower"},
	{"cpu_s", "s", "lower"},
	{"alloc_B_per_msg", "B", "lower"},
	{"reexec_steps", "steps", "lower"},
}

// commonCells are the end-to-end metrics every workload defines.
var commonCells = []string{"setup_s", "wall_s", "msgs_per_s", "cpu_s", "alloc_B_per_msg"}

// perLayer is the budget, one layer per package. A metric a workload has
// nothing to say about is left out of the table and the result file, and
// is 0 in the one-line result the driver reads (which must name them all).
var perLayer = []metricDef{
	{"transport.mesh_build_s", "s", "lower"},
	{"transport.first_exchange_s", "s", "lower"},
	{"transport.send_ns_p50", "ns", "lower"},
	{"transport.flush_us_p50", "us", "lower"},
	{"transport.drain_ns_per_msg", "ns", "lower"},
	{"transport.wait_share", "ratio", "lower"},
	{"transport.app_msgs", "count", "lower"},
	{"transport.ack_msgs", "count", "lower"},
	{"transport.bytes_out", "B", "lower"},
	{"transport.flushes", "count", "lower"},
	{"transport.frames_per_flush", "ratio", "higher"},
	{"transport.bytes_per_flush", "B", "higher"},
	{"transport.ring_frame_share", "ratio", "higher"},
	{"transport.pool_hit_ratio", "ratio", "higher"},
	{"transport.dropped_msgs", "count", "lower"},
	{"transport.redials", "count", "lower"},
	{"mpi.send_us_p50", "us", "lower"},
	{"mpi.recv_us_p50", "us", "lower"},
	{"mpi.waitall_us_p50", "us", "lower"},
	{"mpi.barrier_us_p50", "us", "lower"},
	{"mpi.allocs_per_msg", "count", "lower"},
	{"core.send_extra_us_p50", "us", "lower"},
	{"core.recv_extra_us_p50", "us", "lower"},
	{"core.rtt_p99_us", "us", "lower"},
	{"core.rtt_p99.9_us", "us", "lower"},
	{"core.slowdown_x", "x", "lower"},
	{"core.acks_per_app_msg", "ratio", "lower"},
	{"core.acks_coalesced_share", "ratio", "higher"},
	{"core.substitutions", "count", "lower"},
	{"core.replayed_msgs", "count", "lower"},
	{"core.msglog_peak_B", "B", "lower"},
	{"cluster.launch_s", "s", "lower"},
	{"cluster.subst_stall_ms", "ms", "lower"},
	{"cluster.replay_relaunch_ms_p50", "ms", "lower"},
	{"cluster.replay_catchup_ms_p50", "ms", "lower"},
	{"cluster.rollback_ms_p50", "ms", "lower"},
	{"cluster.recovery_s", "s", "lower"},
	{"cluster.restarts", "count", "lower"},
	{"cluster.replays", "count", "lower"},
	{"ckpt.save_ms_p50", "ms", "lower"},
	{"ckpt.store_save_MB_per_s", "MB/s", "higher"},
	{"ckpt.store_load_MB_per_s", "MB/s", "higher"},
	{"ckpt.bytes_written", "B", "lower"},
	{"ckpt.waves_committed", "count", "lower"},
	{"ckpt.pruned", "count", "lower"},
	{"apps.kernel_s_max", "s", "lower"},
	{"apps.rank_skew_pct", "%", "lower"},
	{"apps.iterations", "count", "higher"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.spans", "count", "lower"},
}

// workload is one fixed set of inputs. Why each exists is recorded with its
// type, in README.md and in BENCHMARK.json.
type workload struct {
	name    string
	cells   []string // end-to-end metrics it defines beyond commonCells
	prepare prepareFunc
}

// defines reports whether the workload reports end-to-end metric name.
func (w workload) defines(name string) bool {
	return slices.Contains(commonCells, name) || slices.Contains(w.cells, name)
}

// prepareFunc turns a seed into a runner; files the workload needs
// (checkpoints, ring files) go under workDir.
type prepareFunc func(seed int64, workDir string) (runner, error)

// runner executes repetitions of a prepared workload. Each repetition is
// complete in itself — set-up, the replicated run, the Native reference it
// is checked against — so every timing is available once per repetition
// and reported as the median over repetitions.
type runner interface {
	// rep runs one repetition; rec is nil in an untraced repetition.
	rep(rec *recorder) repOut
	// counts names the iteration counts this workload ran at.
	counts() map[string]int
	close()
}

// repOut is one repetition's outcome: a value per metric it could measure,
// and its operations (round trips, messages, solves or process results —
// see each workload) counted against those that failed.
type repOut struct {
	vals              map[string]float64
	attempted, failed int
	errs              []string
	spans             []span
	labels            map[int32]string
}

func (o *repOut) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	o.vals[name] = v
}

func (o *repOut) errorf(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

func newRepOut() repOut { return repOut{vals: make(map[string]float64)} }

// timings is what every workload measures of one repetition; setTimings
// turns it into the end-to-end metrics defined the same way everywhere.
type timings struct {
	wall      float64 // timed region, seconds
	cpu       float64 // over wall's region, seconds
	heapBytes float64 // allocated by the replicated run, set-up included
	msgs      float64 // logical application messages of the timed region
}

func (o *repOut) setTimings(t timings) {
	o.set("wall_s", t.wall)
	o.set("msgs_per_s", t.msgs/t.wall)
	o.set("cpu_s", t.cpu)
	o.set("alloc_B_per_msg", t.heapBytes/t.msgs)
}

// setClusterLayer sets the per-layer values every cluster.Run workload
// reads the same way: off the replicated run, the Native run, and the
// counters that moved during the replicated run.
func (o *repOut) setClusterLayer(repl, nat *run, msgs float64, moved counterDelta) {
	o.set("mpi.allocs_per_msg", float64(nat.heap.objects)/msgs)
	o.set("cluster.launch_s", repl.launchS())
	o.set("transport.app_msgs", float64(repl.rep.Stats.AppMsgs()))
	o.set("transport.ack_msgs", float64(repl.rep.Stats.AckMsgs()))
	moved.layerCounts(o)
}

// failRuns reports whether any run failed; if so the repetition's
// operations all count as failed.
func (o *repOut) failRuns(runs ...*run) bool {
	for _, r := range runs {
		if r.err != nil {
			o.errorf("%s: %v", r.label, r.err)
			o.failed = max(o.attempted, 1)
			o.attempted = o.failed
			return true
		}
	}
	return false
}

// takeSpans folds a traced repetition's spans; a nesting violation fails
// the repetition.
func (o *repOut) takeSpans(rec *recorder) spanStats {
	o.spans, o.labels = rec.take()
	st := foldSpans(o.spans, o.labels)
	if st.nestErr != "" {
		o.errorf("spans do not nest: %s", st.nestErr)
	}
	o.set("trace.spans", float64(st.count))
	return st
}

// options are the command line of one run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	minReps int
}

// metricValue is a reported metric: the median over repetitions, with the
// repetitions kept beside it. Decile is the first decile when lower is
// better and the ninth when higher is: what the run reached when the host
// left it alone, a diagnostic that no verdict reads.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Min     float64   `json:"min"`
	Decile  float64   `json:"decile"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples"`
}

// result is one workload's outcome, as written to the result file.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Reps      int                    `json:"reps"`
	Counts    map[string]int         `json:"counts"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	Errors    []string               `json:"errors,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// runWorkload prepares w, runs one warm-up repetition, then timed
// repetitions until the time budget is spent (and at least minReps). In a
// traced run the repetitions alternate untraced and traced, so the tracing
// overhead is measured inside the same run.
func runWorkload(w workload, opt options) (*result, error) {
	res := &result{Workload: w.name, Seed: opt.seed, Trace: opt.trace,
		EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}}
	r, err := w.prepare(opt.seed, opt.outDir)
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", w.name, err)
	}
	defer r.close()
	res.Counts = r.counts()

	if warm := r.rep(nil); len(warm.errs) > 0 {
		return nil, fmt.Errorf("%s: warm-up repetition: %s", w.name, warm.errs[0])
	}

	untraced := map[string][]float64{}
	traced := map[string][]float64{}
	var lastSpans []span
	var lastLabels map[int32]string
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	var lastRep time.Duration
	for i := 0; i < opt.minReps || time.Now().Add(lastRep/2).Before(deadline); i++ {
		repStart := time.Now()
		var rec *recorder
		into := untraced
		if opt.trace && i%2 == 1 {
			rec = newRecorder()
			into = traced
		}
		runtime.GC()
		out := r.rep(rec)
		res.Reps++
		res.Attempted += out.attempted
		res.Failed += out.failed
		res.Errors = append(res.Errors, out.errs...)
		for k, v := range out.vals {
			into[k] = append(into[k], v)
		}
		if rec != nil {
			lastSpans, lastLabels = out.spans, out.labels
		}
		lastRep = time.Since(repStart)
	}
	res.Counts["reps"] = res.Reps

	for _, d := range endToEnd {
		if !w.defines(d.Name) {
			continue
		}
		if xs := untraced[d.Name]; len(xs) > 0 {
			res.EndToEnd[d.Name] = summarize(xs, d)
		} else {
			res.Errors = append(res.Errors, "no repetition measured "+d.Name)
		}
	}
	for _, d := range perLayer {
		xs := append(append([]float64(nil), untraced[d.Name]...), traced[d.Name]...)
		if len(xs) > 0 {
			res.PerLayer[d.Name] = summarize(xs, d)
		}
	}
	// Ratios and differences of timings are taken of the medians, not per
	// repetition: a repetition's two runs need not have met the same weather.
	derive := func(name, unit string, v float64) {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			res.PerLayer[name] = metricValue{Value: v, Unit: unit, Min: v, Decile: v, Max: v, Samples: []float64{v}}
		}
	}
	if opt.trace {
		derive("trace.overhead_pct", "%", (median(traced["wall_s"])/median(untraced["wall_s"])-1)*100)
		if lastSpans != nil {
			path := fmt.Sprintf("%s/%s.spans.jsonl", opt.outDir, w.name)
			if err := writeSpans(path, lastSpans, lastLabels); err != nil {
				res.Errors = append(res.Errors, "writing spans: "+err.Error())
			}
		}
	}
	wall := median(untraced["wall_s"])
	derive("core.slowdown_x", "x", wall/median(untraced["native_wall_s"]))
	derive("cluster.recovery_s", "s", wall-median(untraced["faultfree_wall_s"]))
	res.Correct = res.Failed == 0 && len(res.Errors) == 0 && res.Attempted > 0
	return res, nil
}

func summarize(xs []float64, d metricDef) metricValue {
	decile := quantile(xs, 0.1)
	if d.Better == "higher" {
		decile = quantile(xs, 0.9)
	}
	return metricValue{Value: median(xs), Unit: d.Unit,
		Min: quantile(xs, 0), Decile: decile, Max: quantile(xs, 1), Samples: xs}
}

// runMeter is what the benchmark's app functions share during one
// cluster.Run: the timed region, and when the first process entered and
// the last one left its app function.
type runMeter struct {
	region region

	mu          sync.Mutex
	first, last time.Time
	kernel      []float64 // per process: seconds inside the proxy kernels
}

func (m *runMeter) enter() {
	now := time.Now()
	m.mu.Lock()
	if m.first.IsZero() {
		m.first = now
	}
	m.mu.Unlock()
}

func (m *runMeter) leave() {
	now := time.Now()
	m.mu.Lock()
	m.last = now
	m.mu.Unlock()
}

func (m *runMeter) addKernel(s float64) {
	m.mu.Lock()
	m.kernel = append(m.kernel, s)
	m.mu.Unlock()
}

// run is one finished cluster.Run with what was measured around it.
type run struct {
	label string
	rep   *cluster.Report
	meter *runMeter
	wall  float64    // seconds in cluster.Run
	heap  heapSample // allocated by cluster.Run, launch and warm-up included
	err   error
}

// launchS is the part of cluster.Run outside every app function: network
// build and spawn before the first one starts, drain and teardown after
// the last one returns.
func (r *run) launchS() float64 {
	return r.wall - r.meter.last.Sub(r.meter.first).Seconds()
}

// untimedS is the part of cluster.Run outside the timed region.
func (r *run) untimedS() float64 { return r.wall - r.meter.region.wall() }

// appFunc is a benchmark app function: a cluster.AppFunc that also gets
// the run's meter and its own span buffer (nil when untraced).
type appFunc func(env *cluster.Env, m *runMeter, pt *procTrace) (any, error)

// launch runs app under cfg inside a root span and reports the run. A run
// that errors, times out or never closes its timed region has err set.
func launch(cfg cluster.Config, rec *recorder, label string, app appFunc) *run {
	m := &runMeter{}
	root := rec.root(spanRun, label)
	heap0 := sampleHeap()
	t0 := time.Now()
	rep := cluster.Run(cfg, func(env *cluster.Env) (any, error) {
		pt := root.proc(env.Rank, env.Rep)
		m.enter()
		defer func() {
			m.leave()
			pt.close()
		}()
		return app(env, m, pt)
	})
	wall := time.Since(t0).Seconds()
	heap := sampleHeap().since(heap0)
	root.end()
	r := &run{label: label, rep: rep, meter: m, wall: wall, heap: heap, err: rep.FirstError()}
	if r.err == nil && !m.region.complete() {
		r.err = fmt.Errorf("timed region never closed")
	}
	return r
}

// launchPair runs one app under SDR and then under Native, and reports with
// them what the layers' counters moved during the SDR run.
func launchPair(cfg cluster.Config, rec *recorder, sdrApp, nativeApp appFunc) (sdr, nat *run, moved counterDelta) {
	before := snapCounters()
	cfg.Protocol = cluster.SDR
	sdr = launch(cfg, rec, "sdr", sdrApp)
	moved = counterDelta{before, snapCounters()}
	cfg.Protocol = cluster.Native
	nat = launch(cfg, rec, "native", nativeApp)
	return sdr, nat, moved
}

// tcomm is a communicator whose calls are recorded as spans when traced.
type tcomm struct {
	c *mpi.Comm
	t *procTrace
}

func (x tcomm) Send(to mpi.Rank, tag int, data []byte) {
	if x.t == nil {
		x.c.Send(to, tag, data)
		return
	}
	s := x.t.begin()
	x.c.Send(to, tag, data)
	x.t.leaf(spanSend, s)
}

func (x tcomm) Recv(from mpi.Rank, tag int, buf []byte) {
	if x.t == nil {
		x.c.Recv(from, tag, buf)
		return
	}
	s := x.t.begin()
	x.c.Recv(from, tag, buf)
	x.t.leaf(spanRecv, s)
}

func (x tcomm) Isend(to mpi.Rank, tag int, data []byte) *mpi.Request {
	if x.t == nil {
		return x.c.Isend(to, tag, data)
	}
	s := x.t.begin()
	req := x.c.Isend(to, tag, data)
	x.t.leaf(spanIsend, s)
	return req
}

func (x tcomm) Waitall(reqs ...*mpi.Request) {
	if x.t == nil {
		mpi.Waitall(reqs...)
		return
	}
	s := x.t.begin()
	mpi.Waitall(reqs...)
	x.t.leaf(spanWaitall, s)
}

func (x tcomm) Barrier() {
	if x.t == nil {
		x.c.Barrier()
		return
	}
	s := x.t.begin()
	x.c.Barrier()
	x.t.leaf(spanBarrier, s)
}

// p50us is the median of ns-valued span durations, in µs (NaN when none).
func p50us(ns []float64) float64 { return median(ns) / 1e3 }

// sum adds up xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
