package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/transport"
)

// TestTeardownKillsEveryEndpointBeforeNotifying is the regression test for
// a doomed twin substituting: when an epoch is lost, the detector's
// failure broadcast for the first process killed must find every other
// process already dead. Killing one endpoint at a time let a live twin
// take that notification and substitute into the torn-down epoch (the
// recovery ladder then counted one substitution too many).
func TestTeardownKillsEveryEndpointBeforeNotifying(t *testing.T) {
	layout, err := core.NewLayout(3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	nw := transport.NewNetwork(layout.Procs(), nil)
	defer nw.Close()
	detect.NewService(nw)
	var once sync.Once
	var alive []transport.ProcID
	nw.Monitor(func(transport.ProcID, bool) {
		once.Do(func() {
			for p := 0; p < layout.Procs(); p++ {
				if !nw.Endpoint(transport.ProcID(p)).Crashed() {
					alive = append(alive, transport.ProcID(p))
				}
			}
		})
	})
	rs := &runState{layout: layout, nw: nw}
	rs.teardown()
	if alive != nil {
		t.Fatalf("first failure callback ran while procs %v were still alive", alive)
	}
	for p := 0; p < layout.Procs(); p++ {
		if nw.Alive(transport.ProcID(p)) {
			t.Errorf("proc %d survived the teardown", p)
		}
	}
}

// TestDistributedRejectsInProcessOnlyFields pins the one run spec's split:
// a Config field only the in-process launcher can honour fails a
// distributed run by name, before any worker is spawned.
func TestDistributedRejectsInProcessOnlyFields(t *testing.T) {
	for field, set := range map[string]func(*Config){
		"Delay":         func(c *Config) { c.Delay = &transport.DelayModel{} },
		"UseTCP":        func(c *Config) { c.UseTCP = true },
		"EagerLimit":    func(c *Config) { c.EagerLimit = 1024 },
		"AckOnWait":     func(c *Config) { c.AckOnWait = true },
		"SDC":           func(c *Config) { c.SDC = true },
		"NoAckCoalesce": func(c *Config) { c.NoAckCoalesce = true },
		"Corrupt":       func(c *Config) { c.Corrupt = true },
		"CorruptRank":   func(c *Config) { c.CorruptRank = 1 },
		"CorruptRep":    func(c *Config) { c.CorruptRep = 1 },
		"CorruptSeq":    func(c *Config) { c.CorruptSeq = 3 },
		"TraceSends":    func(c *Config) { c.TraceSends = true },
		"KeepEvents":    func(c *Config) { c.KeepEvents = 8 },
		"Recoveries":    func(c *Config) { c.Recoveries = []RecoveryEvent{{Rank: 1, Rep: 1, AtStep: 2}} },
	} {
		t.Run(field, func(t *testing.T) {
			cfg := DistConfig{Config: Config{Ranks: 2, Protocol: SDR}, WorkerCmd: []string{"/nonexistent/worker"}}
			set(&cfg.Config)
			start := time.Now()
			rep := RunDistributed(cfg)
			var ipe *InProcessOnlyError
			if err := rep.FirstError(); !errors.As(err, &ipe) || ipe.Field != field {
				t.Fatalf("FirstError = %v, want an InProcessOnlyError naming %s", err, field)
			}
			if len(rep.Procs) != 0 || len(rep.EpochsSec) != 0 || time.Since(start) > 5*time.Second {
				t.Fatalf("rejected run still launched: %d procs, %d epochs", len(rep.Procs), len(rep.EpochsSec))
			}
		})
	}
}
