package obs

import (
	"bytes"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sdr_test_msgs_total", "messages")
	c.Inc()
	c.Add(4)
	g := r.Gauge("sdr_test_bytes", "retained bytes")
	g.Add(100)
	g.Add(-30)
	in := r.CounterWith("sdr_test_dir_total", "by direction", []string{"dir"}, []string{"in"})
	out := r.CounterWith("sdr_test_dir_total", "by direction", []string{"dir"}, []string{"out"})
	in.Add(2)
	out.Add(3)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE sdr_test_msgs_total counter",
		"sdr_test_msgs_total 5",
		"# TYPE sdr_test_bytes gauge",
		"sdr_test_bytes 70",
		`sdr_test_dir_total{dir="in"} 2`,
		`sdr_test_dir_total{dir="out"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	// Exposition must round-trip through the scrape parser.
	parsed, err := ParseText(text)
	if err != nil {
		t.Fatal(err)
	}
	if parsed["sdr_test_msgs_total"] != 5 {
		t.Errorf("parsed counter = %v, want 5", parsed["sdr_test_msgs_total"])
	}
	if got := SumByName(parsed, "sdr_test_dir_total"); got != 5 {
		t.Errorf("SumByName over labels = %v, want 5", got)
	}
	snap := r.Snapshot()
	if snap[`sdr_test_dir_total{dir="out"}`] != 3 {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestRegistryReuseReturnsSameChild(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("sdr_test_total", "x")
	b := r.Counter("sdr_test_total", "x")
	if a != b {
		t.Fatal("re-registration handed out a different counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("children diverged")
	}
}

func TestServerHealthzAndMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("sdr_test_up_total", "x").Add(7)
	srv, err := Serve("127.0.0.1:0", r, map[string]string{"proc": "3", "rank": "1"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	h, err := Healthz(srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Info["proc"] != "3" || h.PID <= 0 {
		t.Fatalf("healthz = %+v", h)
	}

	m, err := Scrape(srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m["sdr_test_up_total"] != 7 {
		t.Fatalf("scraped %v, want sdr_test_up_total=7", m)
	}

	// Unknown paths must 404, not accidentally serve metrics.
	resp, err := http.Get("http://" + srv.Addr() + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nope = %d, want 404", resp.StatusCode)
	}
}

func TestTraceChainOrderAndRender(t *testing.T) {
	tr := NewTrace()
	ev := Ev(StagePark, "awaiting SIGKILL")
	ev.Proc, ev.Rank, ev.Rep, ev.Step = 3, 1, 1, 5
	tr.Emit(ev)
	ev = Ev(StageKill, "SIGKILL delivered")
	ev.Proc, ev.Rank, ev.Rep = 3, 1, 1
	tr.Emit(ev)
	// Three observers each record the same detection: the render collapses
	// them into one line with a count.
	for i := 0; i < 3; i++ {
		ev = Ev(StageDetect, "declared dead; failure notification broadcast")
		ev.Proc, ev.Rank = 3, 1
		tr.Emit(ev)
	}
	ev = Ev(StageSubstitute, "surviving replica takes over")
	ev.Rank, ev.Rep = 1, 0
	tr.Emit(ev)
	tr.Emit(Ev(StageMatch, "all survivors identical"))

	events := tr.Events()
	if len(events) != 7 {
		t.Fatalf("recorded %d events, want 7", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Clock <= events[i-1].Clock {
			t.Fatalf("Lamport clock not monotone: %v", events)
		}
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("Seq not dense: %v", events)
		}
	}

	var buf bytes.Buffer
	tr.Render(&buf)
	out := buf.String()
	for _, stage := range []string{"park", "kill", "detect", "substitute", "match"} {
		if !strings.Contains(out, stage) {
			t.Errorf("render missing stage %q:\n%s", stage, out)
		}
	}
	if !strings.Contains(out, "(x3)") {
		t.Errorf("duplicate detects not collapsed:\n%s", out)
	}
	// The ladder must read in order.
	if !(strings.Index(out, "detect") < strings.Index(out, "substitute") &&
		strings.Index(out, "substitute") < strings.Index(out, "match")) {
		t.Errorf("chain out of order:\n%s", out)
	}

	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("Reset left events behind")
	}
}

func TestRunStatsJSONAndBlock(t *testing.T) {
	rs := NewRunStats()
	rs.Protocol, rs.Ranks, rs.Procs = "sdr", 2, 4
	rs.ElapsedSec = 1.5
	rs.EpochsSec = []float64{1.5}
	rs.Workers = []WorkerStats{
		{Proc: 0, Rank: 0, Rep: 0, Addr: "127.0.0.1:1", Scraped: true,
			Metrics: map[string]float64{"sdr_core_app_msgs_total": 10}},
		{Proc: 1, Rank: 0, Rep: 1, Addr: "127.0.0.1:2", Err: "dead"},
	}
	b, err := rs.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"schema":"sdr.runstats/1"`) {
		t.Fatalf("JSON missing schema: %s", b)
	}
	var buf bytes.Buffer
	rs.WriteBlock(&buf)
	if !strings.Contains(buf.String(), "app=10") || !strings.Contains(buf.String(), "scrape failed") {
		t.Fatalf("block:\n%s", buf.String())
	}
}

func TestTraceBoundKeepsNewestEvents(t *testing.T) {
	tr := NewTrace()
	const emitted = 10000
	for i := 0; i < emitted; i++ {
		tr.Emit(Ev(StageDetect, ""))
	}
	events := tr.Events()
	if len(events) != traceCap || tr.Len() != traceCap {
		t.Fatalf("retained %d events (Len %d), want %d", len(events), tr.Len(), traceCap)
	}
	if first := events[0].Seq; first != emitted-traceCap+1 {
		t.Fatalf("oldest retained Seq %d, want %d", first, emitted-traceCap+1)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 || events[i].Clock <= events[i-1].Clock {
			t.Fatalf("retained events not contiguous at %d: %+v then %+v", i, events[i-1], events[i])
		}
	}
	var buf bytes.Buffer
	tr.Render(&buf)
	if want := "(5904 earlier events dropped)"; !strings.Contains(buf.String(), want) {
		t.Fatalf("render does not say %q:\n%.200s", want, buf.String())
	}
	tr.Reset()
	tr.Emit(Ev(StageMatch, ""))
	if ev := tr.Events(); len(ev) != 1 || ev[0].Seq != 1 {
		t.Fatalf("after Reset: %+v", ev)
	}
}

// TestTraceClockFollowsSeq emits from many goroutines at once: every event's
// Lamport time must rise with its Seq, which holds only if the clock ticks
// under the same lock that assigns Seq. Reset keeps the clock running.
func TestTraceClockFollowsSeq(t *testing.T) {
	tr := NewTrace()
	const emitters, each = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.Emit(Ev(StageDetect, ""))
			}
		}()
	}
	wg.Wait()
	events := tr.Events()
	if len(events) != emitters*each {
		t.Fatalf("retained %d events, want %d", len(events), emitters*each)
	}
	for i, ev := range events {
		if ev.Seq != i+1 || ev.Clock != uint64(i+1) {
			t.Fatalf("event %d has Seq %d and Clock %d; both should be %d", i, ev.Seq, ev.Clock, i+1)
		}
	}
	tr.Reset()
	tr.Emit(Ev(StageMatch, ""))
	if ev := tr.Events(); ev[0].Seq != 1 || ev[0].Clock != emitters*each+1 {
		t.Fatalf("after Reset: Seq %d Clock %d, want 1 and %d", ev[0].Seq, ev[0].Clock, emitters*each+1)
	}
}

func TestCounterCellsSumWithSharedWord(t *testing.T) {
	// Owners counting into their own cells, beside callers of the shared
	// word, under -race: every read adds both up.
	r := NewRegistry()
	c := r.CounterWith("sdr_test_cells_total", "cells", []string{"pool"}, []string{"buf"})
	const owners, per = 2 * cellStripes / 3, 500 // owners share some stripes past 64
	var wg sync.WaitGroup
	for o := 0; o < owners; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			cell := c.Cell(o * 3)
			for i := 0; i < per; i++ {
				cell.Inc()
				c.Add(2)
			}
		}(o)
	}
	wg.Wait()
	c.Cell(-1).Add(7) // NoProc keys a cell too
	want := uint64(owners*per*3 + 7)
	if got := c.Value(); got != want {
		t.Fatalf("Value = %d, want %d", got, want)
	}
	if got := r.Snapshot()[`sdr_test_cells_total{pool="buf"}`]; got != float64(want) {
		t.Fatalf("Snapshot = %v, want %d", got, want)
	}
	if unsafe.Sizeof(Cell{}) != 64 {
		t.Fatalf("Cell is %d bytes, want one 64-byte line", unsafe.Sizeof(Cell{}))
	}
}

func TestWriteTextGolden(t *testing.T) {
	// The exposition of a fixed registry, captured when every counter was
	// one shared word: counting part of it through cells changes no byte.
	r := NewRegistry()
	app := r.Counter("sdr_core_app_msgs_total", "application messages posted through Isend")
	app.Add(1)
	app.Cell(0).Add(20)
	app.Cell(3).Add(20)
	hits := "pooled allocations served from a sync.Pool"
	buf := r.CounterWith("sdr_transport_pool_hits_total", hits, []string{"pool"}, []string{"buf"})
	buf.Cell(5).Add(999)
	buf.Inc()
	r.CounterWith("sdr_transport_pool_hits_total", hits, []string{"pool"}, []string{"msg"}).Add(7)
	r.CounterWith("sdr_ckpt_bytes_total", "bytes", []string{"kind", "note"}, []string{"ckpt", "a \"q\"\\b\nc"}).Add(3)
	r.Gauge("sdr_core_msglog_bytes", "payload bytes currently held").Add(-5)
	r.Counter("sdr_cluster_epochs_total", "epochs").Cell(1)
	var b bytes.Buffer
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	const golden = `# HELP sdr_ckpt_bytes_total bytes
# TYPE sdr_ckpt_bytes_total counter
sdr_ckpt_bytes_total{kind="ckpt",note="a \\\"q\\\"\\\\b\\nc"} 3
# HELP sdr_cluster_epochs_total epochs
# TYPE sdr_cluster_epochs_total counter
sdr_cluster_epochs_total 0
# HELP sdr_core_app_msgs_total application messages posted through Isend
# TYPE sdr_core_app_msgs_total counter
sdr_core_app_msgs_total 41
# HELP sdr_core_msglog_bytes payload bytes currently held
# TYPE sdr_core_msglog_bytes gauge
sdr_core_msglog_bytes -5
# HELP sdr_transport_pool_hits_total pooled allocations served from a sync.Pool
# TYPE sdr_transport_pool_hits_total counter
sdr_transport_pool_hits_total{pool="buf"} 1000
sdr_transport_pool_hits_total{pool="msg"} 7
`
	if got := b.String(); got != golden {
		t.Fatalf("exposition changed:\n%s\nwant:\n%s", got, golden)
	}
}
