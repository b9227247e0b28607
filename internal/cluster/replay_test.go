package cluster

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/mpi"
)

// waitForDeath spins library progress on the would-be substitute (rank's
// rep-0 process) until the failure of (rank, rep) is visible in its local
// view.
func waitForDeath(env *Env, rank, rep int) {
	if env.Rep != 0 || env.Rank != rank || env.Replicated() == nil {
		return
	}
	dead := env.Replicated().Layout().Phys(rep, rank)
	eng := env.World.Proc().Engine()
	for env.Replicated().AliveView(dead) {
		eng.Progress()
		runtime.Gosched()
	}
}

// waitForRevival spins library progress on rank 0's rep-0 process until
// the substitute has forked (rank, rep) — the run's one recovery event —
// and this process sees it alive. Watching AliveView alone could miss the
// dead interval: one Progress call may handle both the failure and the
// recovery notification.
func waitForRevival(env *Env, rank, rep int) {
	if env.Rep != 0 || env.Rank != 0 || env.Replicated() == nil {
		return
	}
	rs := env.h.(*runState)
	q := env.Replicated().Layout().Phys(rep, rank)
	eng := env.World.Proc().Engine()
	for {
		if rs.recovered[0].Load() && env.Replicated().AliveView(q) {
			return
		}
		eng.Progress()
		runtime.Gosched()
	}
}

// TestRecoveryReplaysRetainedMessages drives the exact Figure 4 "missing
// message" situation: rank 0 sends a burst to rank 1 that nobody has
// received when rank 1's world-1 replica dies and is later recovered. At
// the recovery notification, rank 0's world-1 process still retains every
// unacknowledged message and must replay the full burst, in order, to the
// resurrected replica (core.replayRetained).
func TestRecoveryReplaysRetainedMessages(t *testing.T) {
	const burst = 5
	app := func(env *Env) (any, error) {
		c := env.World
		var step int
		if b := env.Restored(); b != nil {
			step = int(binary.LittleEndian.Uint64(b))
		}
		snap := func() []byte {
			b := make([]byte, 8)
			binary.LittleEndian.PutUint64(b, uint64(step))
			return b
		}
		var pending []*mpi.Request
		sum := 0
		for ; step < 4; step++ {
			env.Step(step, snap)
			switch step {
			case 0:
				// The burst: posted but never completed before the crash;
				// rank 1 does not receive until step 3.
				if c.Rank() == 0 {
					for i := 0; i < burst; i++ {
						pending = append(pending, c.Isend(1, 10+i, []byte{byte(30 + i)}))
					}
				}
			case 1:
				// The substitute-to-be must observe the crash before it
				// reaches the recovery step, or it would race past it
				// (nothing else synchronizes rank 1 in this pattern).
				waitForDeath(env, 1, 1)
			case 3:
				if c.Rank() == 1 {
					buf := make([]byte, 1)
					for i := 0; i < burst; i++ {
						st := c.Recv(0, 10+i, buf)
						if st.Tag != 10+i {
							return nil, nil
						}
						sum = sum*100 + int(buf[0])
					}
				} else {
					mpi.Waitall(pending...)
					pending = nil
				}
			}
		}
		if c.Rank() == 0 {
			return "sent", nil
		}
		return sum, nil
	}

	rep := Run(Config{
		Ranks: 2, Protocol: SDR, Timeout: 30 * time.Second,
		Failures:   []FailureEvent{{Rank: 1, Rep: 1, AtStep: 1}},
		Recoveries: []RecoveryEvent{{Rank: 1, Rep: 1, AtStep: 2}},
	}, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < burst; i++ {
		want = want*100 + 30 + i
	}
	finished := 0
	for _, p := range rep.Procs {
		if p.Crashed {
			continue
		}
		finished++
		if p.Rank == 1 && p.Result != want {
			t.Errorf("rank 1 rep %d: received %v, want %v", p.Rep, p.Result, want)
		}
	}
	// Both rank-0 replicas, the surviving rank-1 replica, and the
	// recovered one must all finish.
	if finished != 4 {
		t.Errorf("finished = %d, want 4 (recovered replica included)", finished)
	}
}

// TestRecoveryReplayWithRendezvousBurst repeats the replay scenario with
// a payload above the eager limit: the replayed message runs the full
// RTS/CTS/Data handshake against the resurrected replica. Rank 0's world-0
// replica sends only once the replica is back, so the substitute holds no
// RTS when it forks at step 2, and rank 0's world-1 replica replays its
// retained message to the revived replica.
func TestRecoveryReplayWithRendezvousBurst(t *testing.T) { runRendezvousRecovery(t, false) }

// TestForkWaitsForBufferedRendezvous pins the fork's refusal of buffered
// rendezvous traffic. The substitute holds rank 0's unmatched RTS at the
// scheduled step 2 (its Probe queued it) and still at step 3, where it
// sleeps before receiving. A fork that cloned the RTS would let the revived
// replica answer it first and take the payload, and the substitute would
// wait forever; the fork must instead wait for step 4, after the Recv.
func TestForkWaitsForBufferedRendezvous(t *testing.T) { runRendezvousRecovery(t, true) }

// runRendezvousRecovery runs the rendezvous recovery scenario: rank 0
// sends rank 1 one payload above the eager limit at step 0, rank 1's
// world-1 replica dies at step 1 and is recovered from step 2 on, and
// rank 1 receives at step 3. holdRTS makes the substitute hold rank 0's
// RTS across steps 2 and 3; otherwise rank 0's world-0 replica sends only
// after the revival. Both replicas of both ranks must finish, and every
// rank-1 replica must receive the payload (first plus last byte, 7 + 9).
func runRendezvousRecovery(t *testing.T, holdRTS bool) {
	const size = 96 << 10
	substitute := func(env *Env) bool { return holdRTS && env.Rank == 1 && env.Rep == 0 }
	app := func(env *Env) (any, error) {
		c := env.World
		var step int
		var got byte
		if b := env.Restored(); b != nil {
			step, got = int(binary.LittleEndian.Uint64(b)), b[8]
		}
		snap := func() []byte {
			b := make([]byte, 9)
			binary.LittleEndian.PutUint64(b, uint64(step))
			b[8] = got
			return b
		}
		var pending []*mpi.Request
		payload := make([]byte, size)
		payload[0], payload[size-1] = 7, 9
		for ; step < 5; step++ {
			env.Step(step, snap)
			switch step {
			case 0:
				if c.Rank() == 0 {
					if !holdRTS {
						waitForRevival(env, 1, 1)
					}
					pending = append(pending, c.Isend(1, 5, payload))
				}
			case 1:
				waitForDeath(env, 1, 1)
				if substitute(env) {
					c.Probe(0, 5)
				}
			case 3:
				if c.Rank() == 1 {
					if substitute(env) {
						time.Sleep(50 * time.Millisecond)
					}
					buf := make([]byte, size)
					c.Recv(0, 5, buf)
					got = buf[0] + buf[size-1]
				} else {
					mpi.Waitall(pending...)
					pending = nil
				}
			}
		}
		return int(got), nil
	}
	rep := Run(Config{
		Ranks: 2, Protocol: SDR, Timeout: 20 * time.Second,
		Failures:   []FailureEvent{{Rank: 1, Rep: 1, AtStep: 1}},
		Recoveries: []RecoveryEvent{{Rank: 1, Rep: 1, AtStep: 2}},
	}, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	finished := 0
	for _, p := range rep.Procs {
		if p.Crashed {
			continue
		}
		finished++
		if p.Rank == 1 && p.Result != 16 {
			t.Errorf("rank 1 rep %d: %v, want 16", p.Rep, p.Result)
		}
	}
	if finished != 4 {
		t.Errorf("finished = %d, want 4 (recovered replica included)", finished)
	}
}

// TestForkRestoresCollSeq forks a replica in a run that calls collectives
// every step: the fork must carry the world communicator's collective
// counter, or the revived replica tags its first Barrier where nobody
// expects it and hangs.
func TestForkRestoresCollSeq(t *testing.T) {
	const steps = 10
	app := func(env *Env) (any, error) {
		c := env.World
		n := c.Size()
		var step int
		var sum float64
		if b := env.Restored(); b != nil {
			step = int(binary.LittleEndian.Uint64(b))
			sum = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
		}
		snap := func() []byte {
			b := make([]byte, 16)
			binary.LittleEndian.PutUint64(b, uint64(step))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(sum))
			return b
		}
		out, in := make([]byte, 8), make([]byte, 8)
		for ; step < steps; step++ {
			env.Step(step, snap)
			r := int(c.Rank())
			binary.LittleEndian.PutUint64(out, uint64(step*n+r))
			c.Sendrecv(mpi.Rank((r+1)%n), 1, out, mpi.Rank((r+n-1)%n), 1, in)
			c.Barrier()
			sum += c.AllreduceFloat64(float64(binary.LittleEndian.Uint64(in)), mpi.OpSum)
		}
		return sum, nil
	}
	cfg := Config{Ranks: 4, Protocol: Native, Timeout: 20 * time.Second}
	ref := Run(cfg, app)
	if err := ref.FirstError(); err != nil {
		t.Fatal(err)
	}
	cfg.Protocol = SDR
	cfg.Failures = []FailureEvent{{Rank: 1, Rep: 1, AtStep: 3}}
	cfg.Recoveries = []RecoveryEvent{{Rank: 1, Rep: 1, AtStep: 7}}
	rep := Run(cfg, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	finished := 0
	for _, p := range rep.Procs {
		if p.Crashed {
			continue
		}
		finished++
		if want := ref.ResultOf(p.Rank, 0); p.Result != want {
			t.Errorf("rank %d rep %d: %v, want %v", p.Rank, p.Rep, p.Result, want)
		}
	}
	if finished != 8 {
		t.Errorf("finished = %d, want 8 (recovered replica included)", finished)
	}
}
