package cluster

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
)

// The deferred ack gate (core/retention.go) at the launcher's level: SDR
// with two replicas per rank, every survivor checked against Native.

func TestGateSymmetricIsendExchange(t *testing.T) {
	// Isend never blocks: two ranks that each post two sends and two
	// receives toward the other before waiting for any of them complete.
	// The second send is gated on the first one's acks, which arrive only
	// because the peer's receives are already posted.
	app := func(env *Env) (any, error) {
		c := env.World
		other := 1 - c.Rank()
		in := [2][]byte{make([]byte, 8), make([]byte, 8)}
		sum := uint64(0)
		for round := 0; round < 50; round++ {
			var out [2][8]byte
			binary.LittleEndian.PutUint64(out[0][:], uint64(round)<<8|uint64(c.Rank()))
			binary.LittleEndian.PutUint64(out[1][:], uint64(round)<<8|uint64(c.Rank())|0x80)
			reqs := []*mpi.Request{
				c.Isend(other, 0, out[0][:]), c.Isend(other, 0, out[1][:]),
				c.Irecv(other, 0, in[0]), c.Irecv(other, 0, in[1]),
			}
			mpi.Waitall(reqs...)
			sum = sum*31 + binary.LittleEndian.Uint64(in[0])*3 + binary.LittleEndian.Uint64(in[1])
		}
		return sum, nil
	}
	ref := Run(Config{Ranks: 2, Protocol: Native, Timeout: 20 * time.Second}, app)
	if err := ref.FirstError(); err != nil {
		t.Fatalf("native reference: %v", err)
	}
	rep := Run(Config{Ranks: 2, Protocol: SDR, Timeout: 20 * time.Second}, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Procs {
		if want := ref.ResultOf(p.Rank, 0); p.Result != want {
			t.Errorf("rank %d rep %d: %v, want %v", p.Rank, p.Rep, p.Result, want)
		}
	}
}

func TestGateOpensWhenAckerFails(t *testing.T) {
	// Rank 0's second Send is gated on the first one's ack from rank 1's
	// world-1 replica, which never receives: it waits for the sender to
	// reach the gate, lets it park there, and is killed. The failure
	// notification must open the gate (core.onFailure clears the dead
	// acker's bit), and every survivor finishes with Native's result.
	const hold = 20 * time.Millisecond
	var atGate atomic.Bool
	var gateWait atomic.Int64
	app := func(env *Env) (any, error) {
		c := env.World
		buf := make([]byte, 8)
		env.Step(0, nil)
		if c.Rank() == 0 {
			c.Send(1, 0, []byte{1, 0, 0, 0, 0, 0, 0, 0})
			if env.Rep == 0 {
				atGate.Store(true)
			}
			start := time.Now()
			c.Send(1, 0, []byte{2, 0, 0, 0, 0, 0, 0, 0})
			if env.Rep == 0 {
				gateWait.Store(int64(time.Since(start)))
			}
			return uint64(3), nil
		}
		if env.Rep == 1 {
			for !atGate.Load() {
				time.Sleep(100 * time.Microsecond)
			}
			time.Sleep(hold)
		}
		env.Step(1, nil) // rank 1's world-1 replica dies here, having received nothing
		sum := uint64(0)
		for i := 0; i < 2; i++ {
			c.Recv(0, 0, buf)
			sum += binary.LittleEndian.Uint64(buf)
		}
		return sum, nil
	}
	atGate.Store(true) // the Native reference has no gate to wait at
	ref := Run(Config{Ranks: 2, Protocol: Native, Timeout: 20 * time.Second}, app)
	if err := ref.FirstError(); err != nil {
		t.Fatalf("native reference: %v", err)
	}
	atGate.Store(false)
	rep := Run(Config{
		Ranks: 2, Protocol: SDR, Timeout: 20 * time.Second,
		Failures: []FailureEvent{{Rank: 1, Rep: 1, AtStep: 1}},
	}, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Procs {
		if p.Crashed {
			continue
		}
		if want := ref.ResultOf(p.Rank, 0); p.Result != want {
			t.Errorf("rank %d rep %d: %v, want %v", p.Rank, p.Rep, p.Result, want)
		}
	}
	if w := time.Duration(gateWait.Load()); w < hold {
		t.Errorf("second Send returned after %v: it did not wait at the gate for the acker's failure (held %v)", w, hold)
	}
}

func TestStaggerKillsAlwaysTakeOver(t *testing.T) {
	// The premise of the yardstick's recovery ladder, as a unit test: kill
	// replica 0 of a rank at step k and replica 1 at step k+2, and the
	// survivor has taken over in between — it cannot leave step k+1 before
	// the dead replica's message of step k is acknowledged, which only a
	// take-over makes possible. Any gate that let two sends to one
	// destination return unacknowledged would lose this. "At least" one:
	// teardown after the second kill can add a take-over elsewhere.
	subst := func() float64 {
		return obs.SumByName(obs.Default.Snapshot(), "sdr_core_substitutions_total")
	}
	for i := 0; i < 50; i++ {
		rank, k := i%4, 2+i%7
		before := subst()
		rep := Run(Config{
			Ranks: 4, Protocol: SDR, Timeout: 20 * time.Second,
			Failures: []FailureEvent{{Rank: rank, Rep: 0, AtStep: k}, {Rank: rank, Rep: 1, AtStep: k + 2}},
		}, ringStepApp(k+4))
		if rep.TimedOut {
			t.Fatalf("pair %d (rank %d, steps %d and %d): run hung", i, rank, k, k+2)
		}
		if rep.ExhaustErr == nil {
			t.Fatalf("pair %d: both replicas of rank %d died and no exhaustion was raised", i, rank)
		}
		if got := subst() - before; got < 1 {
			t.Errorf("pair %d (rank %d, steps %d and %d): %v take-overs, want at least 1", i, rank, k, k+2, got)
		}
	}
}
