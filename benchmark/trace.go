package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records spans from the benchmark's own files, around its
// calls into each layer: one root span per cluster.Run or mesh exchange, a
// child per process's app function, and leaf spans around every Comm,
// Env.Checkpoint and Endpoint call that function makes. Spans stay in
// memory (a private buffer per process goroutine, so recording never takes
// a shared lock) and are folded into the per-layer numbers when the
// repetition ends.

// spanKind names a span; the name's prefix is the layer it is charged to.
type spanKind uint8

const (
	spanRun    spanKind = iota // root: one cluster.Run
	spanMesh                   // root: one mesh exchange
	spanApp                    // a process's app function
	spanKernel                 // one apps.CG / apps.HPCCG call
	spanSend
	spanIsend
	spanRecv
	spanWaitall
	spanBarrier
	spanCheckpoint
	spanEpSend
	spanEpFlush
	spanEpDrain
	spanEpWait
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"cluster.Run", "transport.mesh", "app", "apps.kernel",
	"mpi.Send", "mpi.Isend", "mpi.Recv", "mpi.Waitall", "mpi.Barrier",
	"cluster.Checkpoint",
	"transport.Send", "transport.FlushWire", "transport.Drain", "transport.WaitActivity",
}

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch; Parent is 0 for a root.
type span struct {
	ID, Parent int32
	Run        int32
	Kind       spanKind
	Rank, Rep  int16
	Start, End int64
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder collects the spans of one traced repetition.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int32
	runSeq atomic.Int32

	mu     sync.Mutex
	spans  []span
	labels map[int32]string // run id → "sdr" | "native" | "faulted" | ...
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), labels: make(map[int32]string)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// rootSpan is an open root span; procs hang their app spans under it.
type rootSpan struct {
	rec *recorder
	s   span
}

// root opens a root span for one run. A nil recorder yields a nil root,
// whose methods are no-ops, so call sites need no traced/untraced fork.
func (r *recorder) root(kind spanKind, label string) *rootSpan {
	if r == nil {
		return nil
	}
	run := r.runSeq.Add(1)
	r.mu.Lock()
	r.labels[run] = label
	r.mu.Unlock()
	return &rootSpan{rec: r, s: span{ID: r.nextID.Add(1), Run: run, Kind: kind, Rank: -1, Rep: -1, Start: r.now()}}
}

func (rs *rootSpan) end() {
	if rs == nil {
		return
	}
	rs.s.End = rs.rec.now()
	rs.rec.mu.Lock()
	rs.rec.spans = append(rs.rec.spans, rs.s)
	rs.rec.mu.Unlock()
}

// procTrace is one process goroutine's span buffer: its app span plus the
// leaves recorded under it.
type procTrace struct {
	rec *recorder
	app span
	buf []span
}

// proc opens the app span of one process under the root.
func (rs *rootSpan) proc(rank, rep int) *procTrace {
	if rs == nil {
		return nil
	}
	return &procTrace{rec: rs.rec, app: span{
		ID: rs.rec.nextID.Add(1), Parent: rs.s.ID, Run: rs.s.Run, Kind: spanApp,
		Rank: int16(rank), Rep: int16(rep), Start: rs.rec.now(),
	}}
}

// begin returns the start time of a leaf about to be recorded.
func (p *procTrace) begin() int64 { return p.rec.now() }

// leaf records a finished leaf span that started at start.
func (p *procTrace) leaf(kind spanKind, start int64) {
	p.buf = append(p.buf, span{
		ID: p.rec.nextID.Add(1), Parent: p.app.ID, Run: p.app.Run, Kind: kind,
		Rank: p.app.Rank, Rep: p.app.Rep, Start: start, End: p.rec.now(),
	})
}

// close ends the app span and hands the buffer to the recorder. It runs
// deferred, so a process unwound by an injected crash still reports.
func (p *procTrace) close() {
	if p == nil {
		return
	}
	p.app.End = p.rec.now()
	p.rec.mu.Lock()
	p.rec.spans = append(p.rec.spans, p.app)
	p.rec.spans = append(p.rec.spans, p.buf...)
	p.rec.mu.Unlock()
	p.buf = nil
}

// take returns the recorded spans and run labels.
func (r *recorder) take() ([]span, map[int32]string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans, r.labels
}

// spanStats is what one traced repetition's spans fold into.
type spanStats struct {
	count int
	// durs holds span durations in ns, keyed by run label and kind.
	durs map[string]map[spanKind][]float64
	// nestErr is the first nesting violation found, "" when spans nest.
	nestErr string
}

// foldSpans groups durations by (run label, kind) and checks that spans
// nest: each child lies inside its parent, and every span's self time — its
// duration minus the part its children cover — lies in [0, duration].
func foldSpans(spans []span, labels map[int32]string) spanStats {
	st := spanStats{count: len(spans), durs: make(map[string]map[spanKind][]float64)}
	byID := make(map[int32]*span, len(spans))
	children := make(map[int32][]*span)
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		s := &spans[i]
		label := labels[s.Run]
		if s.Parent != 0 {
			p := byID[s.Parent]
			switch {
			case p == nil:
				st.fail("span %d (%s) has no recorded parent %d", s.ID, spanNames[s.Kind], s.Parent)
			case p.Run != s.Run:
				st.fail("span %d run %d under parent of run %d", s.ID, s.Run, p.Run)
			case s.Start < p.Start || s.End > p.End || s.End < s.Start:
				st.fail("span %d (%s) [%d,%d] outside parent %s [%d,%d]",
					s.ID, spanNames[s.Kind], s.Start, s.End, spanNames[p.Kind], p.Start, p.End)
			}
		}
		if st.durs[label] == nil {
			st.durs[label] = make(map[spanKind][]float64)
		}
		st.durs[label][s.Kind] = append(st.durs[label][s.Kind], float64(s.dur()))
		if self := s.dur() - covered(children[s.ID]); self < 0 || self > s.dur() {
			st.fail("span %d (%s) self time %d outside [0,%d]", s.ID, spanNames[s.Kind], self, s.dur())
		}
	}
	return st
}

func (st *spanStats) fail(format string, args ...any) {
	if st.nestErr == "" {
		st.nestErr = fmt.Sprintf(format, args...)
	}
}

// covered is the length of the union of the children's intervals.
func covered(kids []*span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	lo, hi := kids[0].Start, kids[0].End
	for _, k := range kids[1:] {
		if k.Start > hi {
			total += hi - lo
			lo, hi = k.Start, k.End
		} else if k.End > hi {
			hi = k.End
		}
	}
	return total + hi - lo
}

// maxSpansWritten caps the span file: every root and app span is kept,
// leaves beyond the cap are dropped (and counted in the header) so a
// 100k-round-trip ping-pong does not leave a 60 MB file per run.
const maxSpansWritten = 200_000

// writeSpans writes one repetition's spans as JSON lines: a header object,
// then one array per span [id, parent, run, name, rank, rep, start, end].
func writeSpans(path string, spans []span, labels map[int32]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	dropped := 0
	if len(spans) > maxSpansWritten {
		dropped = len(spans) - maxSpansWritten
	}
	fmt.Fprintf(w, `{"spans":%d,"dropped_leaves":%d,"unit":"ns","fields":["id","parent","run","name","rank","rep","start","end"],"runs":{`,
		len(spans), dropped)
	runs := make([]int, 0, len(labels))
	for r := range labels {
		runs = append(runs, int(r))
	}
	sort.Ints(runs)
	for i, r := range runs {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, `"%d":%q`, r, labels[int32(r)])
	}
	w.WriteString("}}\n")
	written := 0
	for _, s := range spans {
		leaf := s.Kind != spanRun && s.Kind != spanMesh && s.Kind != spanApp
		if leaf && written >= maxSpansWritten {
			continue
		}
		written++
		fmt.Fprintf(w, "[%d,%d,%d,%q,%d,%d,%d,%d]\n",
			s.ID, s.Parent, s.Run, spanNames[s.Kind], s.Rank, s.Rep, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
