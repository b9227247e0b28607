package cluster

import (
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/transport"
)

func TestParseFailureEvent(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FailureEvent
		err  string // "" for a valid event
	}{
		{in: "1:0:3", want: FailureEvent{Rank: 1, Rep: 0, AtStep: 3}},
		{in: "0:1:0", want: FailureEvent{Rank: 0, Rep: 1, AtStep: 0}},
		{in: "12:2:20000", want: FailureEvent{Rank: 12, Rep: 2, AtStep: 20000}},
		// Two events in one value used to run only the first.
		{in: "1:0:3,1:1:3", err: `cluster: failure event "1:0:3,1:1:3": want rank:rep:step`},
		// A trailing byte used to be dropped: this read as step 12.
		{in: "1:0:12x", err: `cluster: failure event "1:0:12x": step "12x" is not a non-negative integer`},
		// No step is negative, so this kill would never fire.
		{in: "1:0:-4", err: `cluster: failure event "1:0:-4": step "-4" is not a non-negative integer`},
		{in: "-1:0:4", err: `cluster: failure event "-1:0:4": rank "-1" is not a non-negative integer`},
		{in: "1:x:4", err: `cluster: failure event "1:x:4": rep "x" is not a non-negative integer`},
		{in: "1:0: 4", err: `cluster: failure event "1:0: 4": step " 4" is not a non-negative integer`},
		{in: "1:0", err: `cluster: failure event "1:0": want rank:rep:step`},
		{in: "1:0:3:4", err: `cluster: failure event "1:0:3:4": want rank:rep:step`},
		{in: "", err: `cluster: failure event "": want rank:rep:step`},
	} {
		got, err := ParseFailureEvent(tc.in)
		switch {
		case tc.err != "":
			if err == nil || err.Error() != tc.err {
				t.Errorf("ParseFailureEvent(%q) = %v, %v; want error %q", tc.in, got, err, tc.err)
			}
		case err != nil || got != tc.want:
			t.Errorf("ParseFailureEvent(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		case got.String() != tc.in:
			t.Errorf("%+v prints %q, parsed from %q", got, got.String(), tc.in)
		}
	}
}

func TestNewScheduleRejectsEventsThatNeverFire(t *testing.T) {
	partial, err := core.NewLayout(2, 2, []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		ev  FailureEvent
		err string
	}{
		{FailureEvent{Rank: 0, Rep: 1, AtStep: -4}, "cluster: failure event 0:1:-4 kills at step -4, which never comes"},
		{FailureEvent{Rank: 2, Rep: 0, AtStep: 3}, "cluster: failure event targets rank 2 outside [0,2)"},
		{FailureEvent{Rank: 1, Rep: 1, AtStep: 3}, "cluster: failure event targets replica 1 of rank 1, which runs 1 replica(s)"},
	} {
		if _, err := newSchedule(partial, []FailureEvent{{Rank: 0, Rep: 0, AtStep: 1}, tc.ev}); err == nil || err.Error() != tc.err {
			t.Errorf("newSchedule(%v) error %v, want %q", tc.ev, err, tc.err)
		}
	}
	// Both launchers refuse a negative step before anything runs.
	cfg := Config{Ranks: 2, Protocol: SDR, Failures: []FailureEvent{{Rank: 1, Rep: 0, AtStep: -4}}}
	const want = "failure event 1:0:-4 kills at step -4"
	if err := Run(cfg, func(*Env) (any, error) { return nil, nil }).FirstError(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Run: %v, want %q", err, want)
	}
	dist := RunDistributed(DistConfig{Config: cfg, WorkerCmd: []string{"/nonexistent"}, LogSink: io.Discard})
	if err := dist.FirstError(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("RunDistributed: %v, want %q", err, want)
	}
}

func TestSchedulePendingListsUnfiredSteps(t *testing.T) {
	layout, err := core.NewLayout(2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	kills, err := newSchedule(layout, []FailureEvent{
		{Rank: 1, Rep: 0, AtStep: 9}, {Rank: 1, Rep: 0, AtStep: 3}, {Rank: 1, Rep: 0, AtStep: 3}, {Rank: 0, Rep: 1, AtStep: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	victim := layout.Phys(0, 1)
	if got := kills.pending(victim); !slices.Equal(got, []int{3, 3, 9}) {
		t.Fatalf("pending %v, want [3 3 9]", got)
	}
	if !kills.fire(victim, 3) {
		t.Fatal("the first of two events at step 3 did not fire")
	}
	if got := kills.pending(victim); !slices.Equal(got, []int{3, 9}) {
		t.Errorf("after one fire: pending %v, want [3 9]", got)
	}
	if got := kills.pending(layout.Phys(0, 0)); got != nil {
		t.Errorf("a process with no events has pending %v", got)
	}
}

func TestScheduleFiresEachEventOnceUnderContention(t *testing.T) {
	// In process every goroutine seat shares one schedule: however many
	// call fire for one (process, step) at once, each event fires once.
	layout, err := core.NewLayout(2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	const events, callers = 3, 16
	kills, err := newSchedule(layout, slices.Repeat([]FailureEvent{{Rank: 1, Rep: 1, AtStep: 4}}, events))
	if err != nil {
		t.Fatal(err)
	}
	victim := layout.Phys(1, 1)
	var fired atomic.Int32
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range events {
				if kills.fire(victim, 4) {
					fired.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := fired.Load(); got != events {
		t.Errorf("%d fires for %d events", got, events)
	}
	if got := kills.pending(victim); got != nil {
		t.Errorf("pending %v after every event fired", got)
	}
}

func TestKillScheduleFiresOncePerEvent(t *testing.T) {
	// The kill schedule, looked up by victim and step: two events on one
	// step kill both of their victims, an event fires on its own step only,
	// and none fires again in the epoch a rollback starts, whose processes
	// pass the same steps again.
	layout, err := core.NewLayout(2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Ranks: 2, Replication: 2, Protocol: SDR, Failures: []FailureEvent{
		{Rank: 0, Rep: 0, AtStep: 3},
		{Rank: 1, Rep: 1, AtStep: 3},
		{Rank: 1, Rep: 0, AtStep: 5},
	}}
	kills, err := newSchedule(layout, cfg.Failures)
	if err != nil {
		t.Fatal(err)
	}
	// epoch runs every process through steps 0–7 and returns the step each
	// was killed at (-1: never).
	epoch := func() []int {
		nw := transport.NewNetwork(layout.Procs(), nil)
		defer nw.Close()
		rs := &runState{cfg: cfg, layout: layout, nw: nw, kills: kills}
		killedAt := make([]int, layout.Procs())
		for p := range killedAt {
			id := transport.ProcID(p)
			e := &Env{Rank: layout.RankOf(id), Rep: layout.RepOf(id)}
			func() {
				defer func() {
					r := recover()
					if r == nil {
						killedAt[p] = -1
					} else if _, ok := mpi.ErrCrashed(r); !ok {
						panic(r)
					}
				}()
				for step := 0; step < 8; step++ {
					killedAt[p] = step
					rs.stepHook(e, step, nil)
				}
			}()
			if nw.Endpoint(id).Crashed() != (killedAt[p] >= 0) {
				t.Errorf("process %d: killed at step %d, endpoint crashed %v", p, killedAt[p], nw.Endpoint(id).Crashed())
			}
		}
		return killedAt
	}
	// Processes 0–3 are ranks 0 and 1 of replica 0, then of replica 1.
	if got, want := epoch(), []int{3, 5, -1, 3}; !slices.Equal(got, want) {
		t.Errorf("first epoch: killed at steps %v, want %v", got, want)
	}
	if got, want := epoch(), []int{-1, -1, -1, -1}; !slices.Equal(got, want) {
		t.Errorf("after a rollback: killed at steps %v, want %v", got, want)
	}
}
