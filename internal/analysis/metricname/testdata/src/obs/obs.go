// Package obs is an analysistest stub of the real registry API: the
// analyzer matches registrar methods on a Registry type in a package
// named obs, so these signatures are all it needs.
package obs

// Counter is the monotonic metric stand-in.
type Counter struct{}

// Gauge is the up/down metric stand-in.
type Gauge struct{}

// Registry is the family table stand-in.
type Registry struct{}

func (r *Registry) Counter(name, help string) *Counter { return nil }

func (r *Registry) CounterWith(name, help string, labelNames, labelValues []string) *Counter {
	return nil
}

func (r *Registry) Gauge(name, help string) *Gauge { return nil }

// Default is the process-wide registry stand-in.
var Default = &Registry{}
