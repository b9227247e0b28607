package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// The recovery-ladder trace: span-style structured events that make one
// failure legible end to end. Each event is stamped with a Lamport time
// (the trace's own clock, ticked once per event) and a wall clock; the
// ordering contract is that
// a failure's chain reads
//
//	park → kill → detect → substitute | replay | rollback → recovered → match
//
// with the middle rung chosen by the ladder. Emitters are the protocol
// core (detect/substitute/replay/recovered — they fire where the state
// change happens), the launcher/coordinator (park/kill/rollback/
// relaunch), and the entry points (match, after result comparison).

// Stage names one rung transition of the recovery ladder.
type Stage string

const (
	// StagePark: a worker reached a scheduled kill boundary and parked
	// awaiting SIGKILL.
	StagePark Stage = "park"
	// StageKill: the fail-stop was realized (SIGKILL sent / crash raised).
	StageKill Stage = "kill"
	// StageDetect: a process was declared dead (failure notification).
	StageDetect Stage = "detect"
	// StageSubstitute: a surviving replica took over the dead one's duties.
	StageSubstitute Stage = "substitute"
	// StageReplay: sender logs were replayed to a relaunched rank
	// (localized replay), or the relaunch itself was spawned.
	StageReplay Stage = "replay"
	// StageRollback: the epoch was torn down and restarted from a
	// committed checkpoint wave.
	StageRollback Stage = "rollback"
	// StageRecovered: a relaunched/forked replica announced itself and the
	// survivors reconciled.
	StageRecovered Stage = "recovered"
	// StageMatch: final results were compared and found identical.
	StageMatch Stage = "match"
)

// Event is one structured trace record. Integer fields use -1 for "not
// applicable" (0 is a valid proc/rank/step).
type Event struct {
	Seq   int       `json:"seq"`   // emission order within this trace
	Clock uint64    `json:"clock"` // Lamport time: ticks with every Emit, never rewound
	Wall  time.Time `json:"wall"`
	Stage Stage     `json:"stage"`
	Proc  int       `json:"proc"` // physical process, -1 if n/a
	Rank  int       `json:"rank"` // logical rank, -1 if n/a
	Rep   int       `json:"rep"`  // replica index, -1 if n/a
	Step  int       `json:"step"` // application step, -1 if n/a
	Wave  int       `json:"wave"` // checkpoint wave, -1 if n/a
	// Detail is the human-readable tail of the event line.
	Detail string `json:"detail,omitempty"`
}

// traceCap is how many events a Trace retains: the newest ones, so that a
// long-lived process (a benchmark's ladder of repetitions) emitting into
// DefaultTrace holds a bounded log.
const traceCap = 4096

// Trace is a thread-safe event log that retains the newest traceCap events.
type Trace struct {
	mu      sync.Mutex // sdr:lockrank obstrace
	clock   uint64     // guarded by mu; Lamport time of the newest event, kept across Reset
	events  []Event    // guarded by mu; a ring once full: event Seq s sits at (s-1) % traceCap
	emitted int        // guarded by mu; events recorded since the last Reset, the newest one's Seq
	start   time.Time  // guarded by mu
	// OnEvent, when set (before any Emit), observes every event as it is
	// recorded — distributed workers print their events to stdout so the
	// coordinator's line-prefixed sink carries them.
	OnEvent func(Event)
}

// NewTrace creates an empty trace.
func NewTrace() *Trace { return &Trace{} }

// DefaultTrace is the process-wide trace the protocol layers emit into,
// mirroring the Default metrics registry.
var DefaultTrace = NewTrace()

// Emit records ev, stamping Seq, Clock, and Wall. The caller fills Stage
// and whichever subject fields apply (use -1 for the rest — the Ev helper
// does this).
func (t *Trace) Emit(ev Event) {
	ev.Wall = time.Now()
	t.mu.Lock()
	t.clock++
	ev.Clock = t.clock
	if t.start.IsZero() {
		t.start = ev.Wall
	}
	t.emitted++
	ev.Seq = t.emitted
	if len(t.events) < traceCap {
		t.events = append(t.events, ev)
	} else {
		t.events[(ev.Seq-1)%traceCap] = ev
	}
	cb := t.OnEvent
	t.mu.Unlock()
	if cb != nil {
		cb(ev)
	}
}

// Ev builds an Event with every subject field defaulted to -1.
func Ev(stage Stage, detail string) Event {
	return Event{Stage: stage, Proc: -1, Rank: -1, Rep: -1, Step: -1, Wave: -1, Detail: detail}
}

// Events returns a copy of the retained events, oldest first.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.retainedLocked()
}

// retainedLocked copies the retained events out of the ring in Seq order.
// Caller holds mu.
func (t *Trace) retainedLocked() []Event {
	if len(t.events) == 0 {
		return nil
	}
	k := t.emitted % len(t.events) // the oldest: 0 until the ring is full
	return append(append([]Event(nil), t.events[k:]...), t.events[:k]...)
}

// Len reports how many events are retained.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Reset drops all recorded events (the demos run several scenarios in one
// process and narrate each in isolation).
func (t *Trace) Reset() {
	t.mu.Lock()
	t.events = nil
	t.emitted = 0
	t.start = time.Time{}
	t.mu.Unlock()
}

// Format renders one event as the canonical single-line form used both by
// live worker output (prefixed TRACE) and the end-of-run chain render.
func (ev Event) Format(since time.Time) string {
	var b strings.Builder
	if !since.IsZero() {
		fmt.Fprintf(&b, "+%-7s ", ev.Wall.Sub(since).Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "%-10s", ev.Stage)
	if ev.Rank >= 0 && ev.Rep >= 0 {
		fmt.Fprintf(&b, " rank %d.%d", ev.Rank, ev.Rep)
	} else if ev.Rank >= 0 {
		fmt.Fprintf(&b, " rank %d", ev.Rank)
	}
	if ev.Proc >= 0 {
		fmt.Fprintf(&b, " proc %d", ev.Proc)
	}
	if ev.Step >= 0 {
		fmt.Fprintf(&b, " step %d", ev.Step)
	}
	if ev.Wave >= 0 {
		fmt.Fprintf(&b, " wave %d", ev.Wave)
	}
	if ev.Detail != "" {
		fmt.Fprintf(&b, ": %s", ev.Detail)
	}
	return b.String()
}

// Render writes the retained chain, one numbered line per event, collapsing
// adjacent duplicates (N processes observing the same failure each emit a
// detect — the chain reads better as one line with a count). A first line
// says how many earlier events the bound dropped, if any.
func (t *Trace) Render(w io.Writer) {
	t.mu.Lock()
	events := t.retainedLocked()
	dropped := t.emitted - len(t.events)
	start := t.start
	t.mu.Unlock()
	if dropped > 0 {
		fmt.Fprintf(w, "  (%d earlier events dropped)\n", dropped)
	}
	type group struct {
		ev    Event
		count int
	}
	var groups []group
	for _, ev := range events {
		if n := len(groups); n > 0 {
			prev := groups[n-1].ev
			if prev.Stage == ev.Stage && prev.Rank == ev.Rank && prev.Rep == ev.Rep &&
				prev.Proc == ev.Proc && prev.Step == ev.Step && prev.Wave == ev.Wave {
				groups[n-1].count++
				continue
			}
		}
		groups = append(groups, group{ev: ev, count: 1})
	}
	for i, g := range groups {
		line := g.ev.Format(start)
		if g.count > 1 {
			line += fmt.Sprintf(" (x%d)", g.count)
		}
		fmt.Fprintf(w, "  #%-3d %s\n", i+1, line)
	}
}
