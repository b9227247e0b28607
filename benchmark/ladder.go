package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/mpi"
)

// ladder is recovery-ladder-4: a resumable 4-rank ring (8-byte messages, a
// Barrier and a checkpoint every `every` steps) under SDR with two replicas
// per rank except rank 1, which is unreplicated and message-logged. Each
// repetition runs it three ways — Native (the reference), SDR with logging
// and checkpoints armed and no kills, and SDR under the fault schedule —
// so the cost of arming recovery and the cost of using it are priced apart.
//
// The schedule climbs all three rungs: one replica of rank 3 dies
// (substitution), rank 1 dies `replays` times (localized replay from its
// own checkpoint and the survivors' sender logs), and both replicas of rank
// 2 die `rollbacks` times (global rollback to the last committed wave).
// Each fault has a checkpoint window to itself, with clean windows between.
type ladder struct {
	sz      ladderSizes
	workDir string
	seedTag uint64 // mixed into every message, so the seed reaches the ring
	state   []byte // seeded checkpoint image; the first 8 bytes hold the sum
	faults  []fault
	events  []cluster.FailureEvent
}

// ladderSizes scale the ladder; the fault kinds and ranks are fixed.
type ladderSizes struct {
	steps, warmSteps, every, ckptBytes int
	replays, rollbacks                 int
}

const (
	ladderRanks       = 4
	ladderLoggedRank  = 1 // unreplicated; its death is a localized replay
	ladderRollbackRnk = 2 // both replicas die; a global rollback
	ladderSubstRank   = 3 // replica 1 dies once; a substitution
	ladderProcs       = 2 * ladderRanks
	// A whole-rank kill takes replica 1 this many steps after replica 0.
	// The ack gate keeps a rank's replicas within a step of each other, so
	// two steps guarantee that the survivor has seen the first death and
	// taken over before it dies too: every whole-rank kill then counts one
	// substitution. (A rollback's teardown kills the processes one by one,
	// and now and then a process takes over from its twin before its own
	// turn comes, so the count has a floor, not a fixed value.)
	ladderStagger = 2
)

type faultKind uint8

const (
	faultSubst faultKind = iota
	faultReplay
	faultRollback
)

// fault is one scheduled fault: its kind and the step at which the (first)
// victim kills itself.
type fault struct {
	kind faultKind
	step int
}

func prepareLadder(sz ladderSizes) prepareFunc {
	return func(seed int64, workDir string) (runner, error) {
		rng := rand.New(rand.NewSource(seed))
		l := &ladder{sz: sz, workDir: workDir, seedTag: rng.Uint64()}
		l.state = make([]byte, sz.ckptBytes)
		rng.Read(l.state)
		var err error
		if l.faults, err = ladderSchedule(sz, rng); err != nil {
			return nil, err
		}
		for _, f := range l.faults {
			switch f.kind {
			case faultSubst:
				l.events = append(l.events, cluster.FailureEvent{Rank: ladderSubstRank, Rep: 1, AtStep: f.step})
			case faultReplay:
				l.events = append(l.events, cluster.FailureEvent{Rank: ladderLoggedRank, Rep: 0, AtStep: f.step})
			case faultRollback:
				l.events = append(l.events,
					cluster.FailureEvent{Rank: ladderRollbackRnk, Rep: 0, AtStep: f.step},
					cluster.FailureEvent{Rank: ladderRollbackRnk, Rep: 1, AtStep: f.step + ladderStagger})
			}
		}
		return l, nil
	}
}

// ladderSchedule places the faults. Windows and kinds are fixed: fault j
// of F sits in checkpoint window 1 + j·(W−2)/F (never the first window —
// a rollback needs a committed wave — and never the last), rollbacks are
// spread evenly among the replays, and the substitution takes the middle
// slot. The seed only permutes, within each kind, a fixed set of evenly
// spaced offsets into the window: how far past a checkpoint a kill lands
// decides how much work it discards, so every seed discards the same total.
func ladderSchedule(sz ladderSizes, rng *rand.Rand) ([]fault, error) {
	windows := sz.steps / sz.every
	total := 1 + sz.replays + sz.rollbacks
	if sz.steps%sz.every != 0 || windows-2 < total || sz.every < 8 {
		return nil, fmt.Errorf("ladder: %d faults do not fit %d windows of %d steps", total, windows, sz.every)
	}
	kinds := make([]faultKind, total)
	for j := range kinds {
		kinds[j] = faultReplay
	}
	for i := 0; i < sz.rollbacks; i++ {
		kinds[(2*i+1)*total/(2*sz.rollbacks)] = faultRollback
	}
	for j := total / 2; ; j = (j + 1) % total {
		if kinds[j] == faultReplay {
			kinds[j] = faultSubst
			break
		}
	}
	offsets := func(n int) []int {
		// n offsets evenly spaced over [2, every-4], then shuffled.
		out := make([]int, n)
		for i := range out {
			out[i] = 2 + (2*i+1)*(sz.every-6)/(2*n)
		}
		rng.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
		return out
	}
	byKind := map[faultKind][]int{
		faultSubst: offsets(1), faultReplay: offsets(sz.replays), faultRollback: offsets(sz.rollbacks),
	}
	faults := make([]fault, total)
	for j, k := range kinds {
		window := 1 + j*(windows-2)/total
		faults[j] = fault{kind: k, step: window*sz.every + byKind[k][0]}
		byKind[k] = byKind[k][1:]
	}
	return faults, nil
}

func (l *ladder) counts() map[string]int {
	return map[string]int{"steps": l.sz.steps, "warm_steps": l.sz.warmSteps, "ckpt_every": l.sz.every, "ckpt_B": l.sz.ckptBytes,
		"replica_kills": 1, "unreplicated_kills": l.sz.replays, "whole_rank_kills": l.sz.rollbacks}
}

func (l *ladder) close() {}

// ladderMeter is the shared clock of one ladder run: what the app function
// writes as it goes and the benchmark reads once the run is over.
type ladderMeter struct {
	exec [ladderProcs]paddedCount // (process, step) executions, by rank·2+rep

	step0    []int64 // rank 0 replica 0: when it first started each step (ns since t0)
	t0       time.Time
	msglogPk atomic.Int64

	mu             sync.Mutex
	killAt         map[int]time.Time // kill step → when its victim first reached it
	lastLoggedKill kill              // rank 1's latest death
	relaunch       []float64         // ms from a rank-1 kill to the relaunched process's first step
	catchup        []float64         // ms from the kill until the relaunched process is past the kill step
	epochFirst     map[int]time.Time // epoch → when its first process took its first step
}

// kill is one realized scheduled death.
type kill struct {
	step, epoch int
	at          time.Time
}

type paddedCount struct {
	n atomic.Int64
	_ [56]byte
}

func (lm *ladderMeter) executed() int64 {
	var t int64
	for i := range lm.exec {
		t += lm.exec[i].n.Load()
	}
	return t
}

// app is the resumable ring. A process that starts from a restored wave
// skips everything before it, collectives included.
func (l *ladder) app(lm *ladderMeter, events []cluster.FailureEvent) appFunc {
	steps, every := l.sz.steps, l.sz.every
	return func(env *cluster.Env, m *runMeter, pt *procTrace) (any, error) {
		c := tcomm{env.World, pt}
		me := env.Rank
		slot := &lm.exec[me*2+env.Rep].n
		right, left := mpi.Rank((me+1)%ladderRanks), mpi.Rank((me-1+ladderRanks)%ladderRanks)
		clock := me == 0 && env.Rep == 0
		myKills := map[int]bool{} // steps at which this process is scheduled to die
		for _, e := range events {
			if e.Rank == me && e.Rep == env.Rep {
				myKills[e.AtStep] = true
			}
		}

		start, sum := 0, uint64(0)
		state := append([]byte(nil), l.state...)
		resumed := false
		if b := env.Restored(); env.RestoredStep() >= 0 && len(b) == len(state) {
			start, sum, resumed = env.RestoredStep(), binary.LittleEndian.Uint64(b), true
		} else {
			// A fresh start: a few untimed ring steps (first touches, pool
			// fills), then the opening barrier. A restored process skips
			// both, as it must skip every collective before its wave.
			out, in := make([]byte, 8), make([]byte, 8)
			for i := 0; i < l.sz.warmSteps; i++ {
				req := env.World.Isend(right, 1, out)
				env.World.Recv(left, 1, in)
				mpi.Waitall(req)
			}
			env.World.Barrier()
			m.region.begin()
		}
		// A relaunched rank 1 (restored inside the epoch it died in)
		// measures its relaunch and its catch-up against that death.
		var killStep int
		var killTime time.Time
		relaunched := false
		if resumed && me == ladderLoggedRank {
			lm.mu.Lock()
			if k := lm.lastLoggedKill; k.epoch == env.Epoch() && !k.at.IsZero() {
				relaunched, killStep, killTime = true, k.step, k.at
			}
			lm.mu.Unlock()
		}
		sbuf, rbuf := make([]byte, 8), make([]byte, 8)
		for i := start; i < steps; i++ {
			if myKills[i] {
				k := kill{step: i, epoch: env.Epoch(), at: time.Now()}
				lm.mu.Lock()
				if _, seen := lm.killAt[i]; !seen {
					lm.killAt[i] = k.at
					if me == ladderLoggedRank {
						lm.lastLoggedKill = k
					}
				}
				lm.mu.Unlock()
			}
			env.Step(i, nil)
			slot.Add(1)
			if clock && lm.step0[i] == 0 {
				lm.step0[i] = int64(time.Since(lm.t0))
			}
			if i == start && resumed {
				now := time.Now()
				lm.mu.Lock()
				if t, ok := lm.epochFirst[env.Epoch()]; !ok || now.Before(t) {
					lm.epochFirst[env.Epoch()] = now
				}
				if relaunched {
					lm.relaunch = append(lm.relaunch, now.Sub(killTime).Seconds()*1e3)
				}
				lm.mu.Unlock()
			}
			if relaunched && i == killStep+1 {
				lm.mu.Lock()
				lm.catchup = append(lm.catchup, time.Since(killTime).Seconds()*1e3)
				lm.mu.Unlock()
			}
			binary.LittleEndian.PutUint64(sbuf, l.seedTag^uint64(me*1_000_000+i))
			req := c.Isend(right, 0, sbuf)
			c.Recv(left, 0, rbuf)
			c.Waitall(req)
			sum += binary.LittleEndian.Uint64(rbuf)
			if (i+1)%every == 0 {
				c.Barrier()
				if env.CanCheckpoint() {
					if clock && pt != nil {
						if v, ok := msglogBytes(); ok && int64(v) > lm.msglogPk.Load() {
							lm.msglogPk.Store(int64(v))
						}
					}
					binary.LittleEndian.PutUint64(state, sum)
					var t0 int64
					if pt != nil {
						t0 = pt.begin()
					}
					err := env.Checkpoint(i+1, state)
					if pt != nil {
						pt.leaf(spanCheckpoint, t0)
					}
					if err != nil {
						return nil, err
					}
				}
			}
		}
		env.World.Barrier()
		m.region.end()
		return sum, nil
	}
}

// run executes the ring once under cfg and returns it with its meter.
func (l *ladder) run(cfg cluster.Config, rec *recorder, label string) (*run, *ladderMeter, error) {
	lm := &ladderMeter{step0: make([]int64, l.sz.steps), t0: time.Now(),
		killAt: map[int]time.Time{}, epochFirst: map[int]time.Time{}}
	if cfg.Protocol != cluster.Native {
		dir, err := os.MkdirTemp(l.workDir, "ckpt-"+label+"-*")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(dir)
		cfg.CheckpointDir = dir
	}
	return launch(cfg, rec, label, l.app(lm, cfg.Failures)), lm, nil
}

func (l *ladder) rep(rec *recorder) repOut {
	out := newRepOut()
	base := cluster.Config{Ranks: ladderRanks, Replication: 2, Timeout: 2 * time.Minute}
	sdrCfg := base
	sdrCfg.Protocol = cluster.SDR
	sdrCfg.UnreplicatedRanks = []int{ladderLoggedRank}
	sdrCfg.RecoveryMode = cluster.RecoveryLog
	faultCfg := sdrCfg
	faultCfg.Failures = l.events
	base.Protocol = cluster.Native

	nat, _, err := l.run(base, rec, "native")
	if err != nil {
		out.errorf("%v", err)
		return out
	}
	free, freeLm, err := l.run(sdrCfg, rec, "faultfree")
	if err != nil {
		out.errorf("%v", err)
		return out
	}
	mid := snapCounters()
	flt, fltLm, err := l.run(faultCfg, rec, "faulted")
	if err != nil {
		out.errorf("%v", err)
		return out
	}
	after := snapCounters()
	fltDelta := counterDelta{mid, after}

	// Correctness. Operations are process results: every process that
	// finished, in both replicated runs, must hold its rank's Native ring
	// sum; and the faulted run must have climbed exactly the scheduled
	// rungs and re-executed something.
	if out.failRuns(nat, free, flt) {
		return out
	}
	for _, r := range []*run{free, flt} {
		for _, p := range r.rep.Procs {
			if p.Crashed {
				continue
			}
			out.attempted++
			if want := nat.rep.ResultOf(p.Rank, 0); p.Result != want {
				out.failed++
				out.errorf("rank %d rep %d computed %v, Native %v", p.Rank, p.Rep, p.Result, want)
			}
		}
	}
	reexec := fltLm.executed() - freeLm.executed()
	subst, _ := fltDelta.get(serSubst)
	wantSubst := float64(1 + l.sz.rollbacks)
	check := func(what string, got, want float64) {
		out.attempted++
		if got != want {
			out.failed++
			out.errorf("faulted run: %s = %v, schedule says %v", what, got, want)
		}
	}
	check("restarts", float64(flt.rep.Restarts), float64(l.sz.rollbacks))
	check("replays", float64(flt.rep.Replays), float64(l.sz.replays))
	out.attempted++
	if subst < wantSubst {
		out.failed++
		out.errorf("faulted run: substitutions = %v, schedule says at least %v", subst, wantSubst)
	}
	out.attempted++
	if reexec <= 0 {
		out.failed++
		out.errorf("faulted run re-executed %d steps", reexec)
	}

	// The ring's logical traffic is what the Native run put on the wire
	// (barriers included), less the untimed first steps.
	msgs := float64(nat.rep.Stats.AppMsgs()) - float64(ladderRanks*l.sz.warmSteps)
	out.set("setup_s", nat.untimedS()+free.untimedS()+flt.untimedS())
	out.setTimings(timings{wall: flt.meter.region.wall(), cpu: flt.meter.region.cpu(), heapBytes: float64(flt.heap.bytes), msgs: msgs})
	out.set("native_wall_s", nat.meter.region.wall())
	out.set("faultfree_wall_s", free.meter.region.wall())
	out.set("reexec_steps", float64(reexec))
	out.setClusterLayer(flt, nat, msgs, fltDelta)
	out.set("cluster.restarts", float64(flt.rep.Restarts))
	out.set("cluster.replays", float64(flt.rep.Replays))
	l.recoveryTimes(&out, fltLm)

	if rec != nil {
		st := out.takeSpans(rec)
		out.set("mpi.waitall_us_p50", p50us(st.durs["native"][spanWaitall]))
		out.set("mpi.barrier_us_p50", p50us(st.durs["native"][spanBarrier]))
		out.set("mpi.recv_us_p50", p50us(st.durs["native"][spanRecv]))
		out.set("ckpt.save_ms_p50", median(st.durs["faultfree"][spanCheckpoint])/1e6)
		out.set("core.msglog_peak_B", float64(fltLm.msglogPk.Load()))
		if err := l.storeRates(&out); err != nil {
			out.errorf("timing the checkpoint store: %v", err)
		}
	}
	return out
}

// recoveryTimes derives the recovery latencies from the shared clock.
func (l *ladder) recoveryTimes(out *repOut, lm *ladderMeter) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	out.set("cluster.replay_relaunch_ms_p50", median(lm.relaunch))
	out.set("cluster.replay_catchup_ms_p50", median(lm.catchup))
	// Rollback e is caused by the e-th whole-rank kill: from the second
	// replica's death to the first step of the next epoch.
	var rollback []float64
	epoch := 0
	for _, f := range l.faults {
		switch f.kind {
		case faultRollback:
			epoch++
			k, ok1 := lm.killAt[f.step+ladderStagger]
			first, ok2 := lm.epochFirst[epoch]
			if ok1 && ok2 && first.After(k) {
				rollback = append(rollback, first.Sub(k).Seconds()*1e3)
			}
		case faultSubst:
			// The largest gap between rank 0's steps while it rides
			// through the replica's death.
			worst := int64(0)
			for i := f.step; i < f.step+l.sz.every/2 && i+1 < len(lm.step0); i++ {
				if g := lm.step0[i+1] - lm.step0[i]; g > worst {
					worst = g
				}
			}
			out.set("cluster.subst_stall_ms", float64(worst)/1e6)
		}
	}
	out.set("cluster.rollback_ms_p50", median(rollback))
}

// storeRates times the checkpoint store directly, on blobs the size of
// the ladder's checkpoints.
func (l *ladder) storeRates(out *repOut) error {
	dir, err := os.MkdirTemp(l.workDir, "ckpt-store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := ckpt.NewStore(dir)
	if err != nil {
		return err
	}
	const waves = 16
	mb := float64(waves*ladderRanks*len(l.state)) / 1e6
	t0 := time.Now()
	for w := 1; w <= waves; w++ {
		for r := 0; r < ladderRanks; r++ {
			if err := store.Save(r, w, l.state, true); err != nil {
				return err
			}
		}
		if err := store.Commit(w); err != nil {
			return err
		}
	}
	out.set("ckpt.store_save_MB_per_s", mb/time.Since(t0).Seconds())
	t0 = time.Now()
	for w := 1; w <= waves; w++ {
		for r := 0; r < ladderRanks; r++ {
			if _, err := store.Load(r, w); err != nil {
				return err
			}
		}
	}
	out.set("ckpt.store_load_MB_per_s", mb/time.Since(t0).Seconds())
	return nil
}
