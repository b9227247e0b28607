// Package obs is the observability layer: process-local counter/gauge
// registries with Prometheus text exposition, a loopback /healthz +
// /metrics HTTP server every distributed worker runs, and a span-style
// recovery-ladder trace (Lamport-stamped events) that makes one failure
// legible end to end — detect → park → substitute /
// replay / rollback → MATCH.
//
// Everything is stdlib-only. The protocol layers record into the
// package-level Default registry (one per OS process — exactly the
// Prometheus process model); the coordinator scrapes each worker's
// /metrics endpoint, whose address travels through the rendezvous
// registry's hello message, and folds the results into a RunStats JSON.
//
// A counter the message path bumps is the sum of per-process cells (see
// Counter.Cell): each process adds into a cache line only it writes, and
// Value, Snapshot and WriteText add the cells up at read time. Series
// names, labels and values are the same as with one shared word.
//
// Metric taxonomy (all names prefixed sdr_, one subsystem segment):
//
//	sdr_core_*       protocol-level: app/ack messages, coalesced ack
//	                 records, substitutions, replayed messages, sender-log
//	                 bytes retained
//	sdr_transport_*  wire-level: pool hits/misses, bytes in/out, redials,
//	                 fail-stop drops to dead peers
//	sdr_ckpt_*       checkpoint store: bytes written and files pruned,
//	                 labeled kind="ckpt"|"log"
//	sdr_cluster_*    coordinator-side: restarts, localized replays, health
//	                 kills, rejoin timeouts, epochs
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Inc and Add bump one word
// every caller shares, which suits the cold paths. A hot path takes its
// owner's Cell once and bumps that instead: cells sit on cache lines of
// their own, so processes that share an OS process do not trade the line on
// every message. Readers add the word and the cells together, so the series
// is the same whichever way it was counted.
type Counter struct {
	v     atomic.Uint64
	cells atomic.Pointer[cellBlock] // nil until the first Cell call
}

// cellStripes is the number of per-owner cells a counter has once any owner
// asks for one: owner keys (process IDs) map onto them modulo the count, so
// a process hosting more processes than this shares some cells between two.
const cellStripes = 64

// Cell is one owner's share of a Counter, padded to a 64-byte cache line.
type Cell struct {
	v atomic.Uint64
	_ [56]byte
}

// cellBlock is a counter's cells behind a line nobody writes: indexing a
// block makes the compiler probe its first byte for nil, and were that
// owner 0's cell, every other owner would read the line owner 0 writes.
type cellBlock struct {
	_     Cell
	cells [cellStripes]Cell
}

// Inc adds 1 to the cell.
func (c *Cell) Inc() { c.v.Add(1) }

// Add adds n to the cell.
func (c *Cell) Add(n uint64) { c.v.Add(n) }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Cell returns the cell owner counts into (owner is a process ID; any int
// works). The cells are allocated by the first call, so a counter no hot
// path uses stays one word and a nil pointer.
func (c *Counter) Cell(owner int) *Cell {
	cb := c.cells.Load()
	if cb == nil {
		cb = c.allocCells()
	}
	return &cb.cells[owner&(cellStripes-1)]
}

func (c *Counter) allocCells() *cellBlock {
	c.cells.CompareAndSwap(nil, new(cellBlock))
	return c.cells.Load()
}

// Value reads the current count: the shared word plus every cell.
func (c *Counter) Value() uint64 {
	n := c.v.Load()
	if cb := c.cells.Load(); cb != nil {
		for i := range cb.cells {
			n += cb.cells[i].v.Load()
		}
	}
	return n
}

// Gauge is a metric that can go up and down (e.g. bytes currently
// retained in the sender logs).
type Gauge struct {
	v atomic.Int64
}

// Set stores an absolute value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metricKind discriminates exposition TYPE lines.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
)

// family is one metric name: help text, kind, and its children keyed by
// the rendered label suffix ("" for an unlabeled metric).
type family struct {
	name     string
	help     string
	kind     metricKind
	labels   []string
	children map[string]any // label suffix → *Counter | *Gauge
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry (or use Default).
type Registry struct {
	mu       sync.Mutex         // sdr:lockrank obsreg
	families map[string]*family // guarded by mu
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry every layer records into — the
// Prometheus per-process model. Workers expose it at /metrics.
var Default = NewRegistry()

// labelSuffix renders {k="v",...} for the exposition line. Label values
// are escaped per the text format (backslash, quote, newline).
func labelSuffix(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := values[i]
		v = strings.ReplaceAll(v, `\`, `\\`)
		v = strings.ReplaceAll(v, "\n", `\n`)
		v = strings.ReplaceAll(v, `"`, `\"`)
		fmt.Fprintf(&b, "%s=%q", n, v)
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns (creating if needed) the family and the child for the
// given label values. Mismatched re-registration panics: metric names are
// compile-time constants and a clash is a programming error.
func (r *Registry) lookup(name, help string, kind metricKind, labelNames, labelValues []string) any {
	if len(labelNames) != len(labelValues) {
		panic(fmt.Sprintf("obs: metric %s: %d label names, %d values", name, len(labelNames), len(labelValues)))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, labels: labelNames,
			children: make(map[string]any)}
		r.families[name] = f
	} else if f.kind != kind || len(f.labels) != len(labelNames) {
		panic(fmt.Sprintf("obs: metric %s re-registered with a different shape", name))
	}
	key := labelSuffix(labelNames, labelValues)
	child := f.children[key]
	if child == nil {
		if kind == kindCounter {
			child = new(Counter)
		} else {
			child = new(Gauge)
		}
		f.children[key] = child
	}
	return child
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, kindCounter, nil, nil).(*Counter)
}

// CounterWith registers (or fetches) one labeled child of a counter
// family. Names and values are parallel slices; the same name must always
// carry the same label names.
func (r *Registry) CounterWith(name, help string, labelNames, labelValues []string) *Counter {
	return r.lookup(name, help, kindCounter, labelNames, labelValues).(*Counter)
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, kindGauge, nil, nil).(*Gauge)
}

// WriteText renders the registry in the Prometheus text exposition format
// (families and children in lexical order, so output is deterministic).
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []string
	for _, n := range names {
		f := r.families[n]
		t := "counter"
		if f.kind == kindGauge {
			t = "gauge"
		}
		out = append(out, fmt.Sprintf("# HELP %s %s\n# TYPE %s %s\n", n, f.help, n, t))
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			switch m := f.children[k].(type) {
			case *Counter:
				out = append(out, fmt.Sprintf("%s%s %d\n", n, k, m.Value()))
			case *Gauge:
				out = append(out, fmt.Sprintf("%s%s %d\n", n, k, m.Value()))
			}
		}
	}
	r.mu.Unlock()
	for _, s := range out {
		if _, err := io.WriteString(w, s); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns every series as name{labels} → value.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := make(map[string]float64)
	for n, f := range r.families {
		for k, c := range f.children {
			switch m := c.(type) {
			case *Counter:
				snap[n+k] = float64(m.Value())
			case *Gauge:
				snap[n+k] = float64(m.Value())
			}
		}
	}
	return snap
}

// ParseText parses Prometheus text exposition (the subset WriteText
// emits: comments, blank lines, and `series value` samples) into
// series → value. The inverse of WriteText, used by the coordinator to
// fold scraped worker metrics into RunStats.
func ParseText(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, ln := range strings.Split(text, "\n") {
		ln = strings.TrimSpace(ln)
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		// The series may contain spaces inside label values; the value is
		// the field after the last space.
		i := strings.LastIndexByte(ln, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("obs: unparseable sample %q", ln)
		}
		var v float64
		if _, err := fmt.Sscanf(ln[i+1:], "%g", &v); err != nil {
			return nil, fmt.Errorf("obs: bad value in %q: %w", ln, err)
		}
		out[strings.TrimSpace(ln[:i])] = v
	}
	return out, nil
}

// SumByName sums every series of one family in a parsed/snapshotted
// metric map — the label-agnostic view ("total bytes regardless of
// direction").
func SumByName(series map[string]float64, name string) float64 {
	var sum float64
	for k, v := range series {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}
