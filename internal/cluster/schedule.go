package cluster

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/transport"
)

// String prints the event as ParseFailureEvent reads it: rank:rep:step.
func (f FailureEvent) String() string { return fmt.Sprintf("%d:%d:%d", f.Rank, f.Rep, f.AtStep) }

// ParseFailureEvent reads rank:rep:step, three non-negative decimal integers
// and nothing else (sdrun's -kill).
func ParseFailureEvent(s string) (FailureEvent, error) {
	fields := strings.Split(s, ":")
	if len(fields) != 3 {
		return FailureEvent{}, fmt.Errorf("cluster: failure event %q: want rank:rep:step", s)
	}
	var v [3]int
	for i, name := range []string{"rank", "rep", "step"} {
		n, err := strconv.ParseUint(fields[i], 10, 31)
		if err != nil {
			return FailureEvent{}, fmt.Errorf("cluster: failure event %q: %s %q is not a non-negative integer", s, name, fields[i])
		}
		v[i] = int(n)
	}
	return FailureEvent{Rank: v[0], Rep: v[1], AtStep: v[2]}, nil
}

// schedule is Config.Failures as both launchers and the worker realize it:
// at[proc][step] holds a fire-once flag per event that kills proc there.
// The flags outlive the epoch: a crash is a physical event that rollback
// does not replay, so a restarted epoch must not kill the same replica
// again and loop forever.
type schedule struct{ at []map[int][]*atomic.Bool }

// newSchedule checks failures against layout and indexes them. An event on
// a replica the layout lacks, or at a negative step, would never fire: the
// run would pass without injecting anything.
func newSchedule(l core.Layout, failures []FailureEvent) (*schedule, error) {
	s := &schedule{at: make([]map[int][]*atomic.Bool, l.Procs())}
	flags := make([]atomic.Bool, len(failures))
	for i, f := range failures {
		if err := checkTarget(l, "failure", f.Rank, f.Rep); err != nil {
			return nil, err
		}
		if f.AtStep < 0 {
			return nil, fmt.Errorf("cluster: failure event %v kills at step %d, which never comes", f, f.AtStep)
		}
		p := l.Phys(f.Rep, f.Rank)
		if s.at[p] == nil {
			s.at[p] = make(map[int][]*atomic.Bool)
		}
		s.at[p][f.AtStep] = append(s.at[p][f.AtStep], &flags[i])
	}
	return s, nil
}

// checkTarget rejects an event on a replica the layout does not contain.
func checkTarget(l core.Layout, kind string, rank, rep int) error {
	if rank < 0 || rank >= l.N {
		return fmt.Errorf("cluster: %s event targets rank %d outside [0,%d)", kind, rank, l.N)
	}
	if rep < 0 || rep >= l.Degree(rank) {
		return fmt.Errorf("cluster: %s event targets replica %d of rank %d, which runs %d replica(s)",
			kind, rep, rank, l.Degree(rank))
	}
	return nil
}

// fire fires one of proc's unfired events at step and reports whether it
// did: proc dies here.
func (s *schedule) fire(proc transport.ProcID, step int) bool {
	for _, f := range s.at[proc][step] {
		if f.CompareAndSwap(false, true) {
			return true
		}
	}
	return false
}

// pending lists the steps of proc's unfired events in ascending order, a
// worker's WorkerConfig.KillSteps.
func (s *schedule) pending(proc transport.ProcID) (steps []int) {
	for step, flags := range s.at[proc] {
		for _, f := range flags {
			if !f.Load() {
				steps = append(steps, step)
			}
		}
	}
	slices.Sort(steps)
	return steps
}
