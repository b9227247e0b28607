package cluster

import (
	"fmt"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/transport"
)

// The launcher core: what Run (processes as goroutines) and RunDistributed
// (processes as OS processes) share. Both climb the same recovery ladder —
// substitution inside an epoch, localized replay of a logging rank, then
// rollback of every process to the latest committed wave (§3.4, §4.1) —
// and only watch an epoch differently. The ladder above one epoch is
// ladder; one physical process's life is procBody; the calls an Env makes
// back into its launcher are harness.

// harness is the launcher-side surface an Env talks back to. Two
// implementations exist: runState (the in-process goroutine launcher) and
// workerState (the distributed worker runtime, which forwards these calls
// to the coordinator over the registry control plane).
type harness interface {
	// noteCkpt records that rank's writer completed its save for step;
	// the harness commits the wave once every rank has.
	noteCkpt(rank, step int) error
	// stepHook realizes the failure/recovery schedule at a step boundary.
	stepHook(e *Env, step int, snapshot func() []byte)
}

// Tally is the recovery ladder's account of a run, embedded in Report and
// DistReport.
type Tally struct {
	// Elapsed accumulates across epochs: the restart cost is part of the
	// run. TimedOut reports that the final epoch's watchdog fired.
	Elapsed  time.Duration
	TimedOut bool
	// Restarts counts completed full rollback-restart cycles; RestartWave
	// is the checkpoint step the last rollback resumed from (-1 if none).
	Restarts    int
	RestartWave int
	// Replays counts localized replays: logging-enabled ranks relaunched
	// alone from their own checkpoint while the survivors kept their
	// state. ReplayWave is the wave the last such relaunch resumed from
	// (-1 if none).
	Replays    int
	ReplayWave int
	// ExhaustErr is set when replication was exhausted and rollback was
	// impossible (no store, no committed wave, or the restart budget ran
	// out), or when an epoch could not be launched at all.
	ExhaustErr error
}

// epochSeed is what one epoch starts from.
type epochSeed struct {
	epoch int // rollback restarts before this epoch
	wave  int // committed wave every process resumes from; -1 on the first epoch
	// states holds every rank's bytes of wave when the launcher asked the
	// ladder to preload them (the in-process one: one load per rank, not
	// per process, made before any process can commit and prune the wave).
	states [][]byte
}

// epochOutcome is what one epoch reports back to the ladder.
type epochOutcome struct {
	elapsed             time.Duration
	timedOut, exhausted bool
	rank                int // the rank that lost its last replica; -1 when unknown
	replays, replayWave int
	err                 error // the epoch could not run
}

// ladder is the recovery ladder above one epoch, the one both launchers
// run. It validates the layout, the schedule and the recovery mode, opens
// the store, and runs epochs until one ends without exhausting
// replication. After an exhausted epoch it picks the latest committed
// wave, drops the epoch-relative replay states, and rolls every process
// back to it — at most len(Failures)+1 times, since each scheduled crash
// fires once. A timed-out epoch ends the run. The tally is filled as it
// goes; the error is a configuration the launcher could not start.
func ladder(cfg Config, t *Tally, tr *obs.Trace, preload bool,
	epoch func(core.Layout, *ckpt.Store, epochSeed) epochOutcome) error {
	t.RestartWave, t.ReplayWave = -1, -1
	layout, err := cfg.layout()
	if err == nil {
		err = validateSchedule(layout, cfg.Failures, cfg.Recoveries)
	}
	if err == nil {
		err = cfg.validateRecovery()
	}
	var store *ckpt.Store
	if err == nil && cfg.CheckpointDir != "" {
		store, err = ckpt.NewStore(cfg.CheckpointDir)
	}
	if err != nil {
		return err
	}
	budget := len(cfg.Failures) + 1
	seed := epochSeed{wave: -1}
	for {
		out := epoch(layout, store, seed)
		t.Elapsed += out.elapsed
		t.TimedOut = out.timedOut
		t.Replays += out.replays
		if out.replays > 0 {
			t.ReplayWave = out.replayWave
		}
		if out.err != nil {
			t.ExhaustErr = out.err
			return nil
		}
		if !out.exhausted || out.timedOut {
			return nil
		}
		lost := "replication exhausted"
		if out.rank >= 0 {
			lost = fmt.Sprintf("all replicas of rank %d failed", out.rank)
		}
		if err := seed.rollback(cfg.Ranks, store, budget, preload); err != nil {
			t.ExhaustErr = fmt.Errorf("cluster: %s; %w", lost, err)
			return nil
		}
		t.Restarts, t.RestartWave = seed.epoch, seed.wave
		ev := obs.Ev(obs.StageRollback,
			fmt.Sprintf("epoch torn down; respawning all processes from wave %d", seed.wave))
		ev.Wave = seed.wave
		tr.Emit(ev)
	}
}

// rollback advances the seed to the next epoch: the latest committed wave,
// its per-rank bytes when preload asks for them, and a store without the
// torn-down epoch's replay states — they are epoch-relative (sequence
// counters restart with the fresh processes), so a logging rank dying in
// the new epoch must fail closed rather than restore them.
func (s *epochSeed) rollback(ranks int, store *ckpt.Store, budget int, preload bool) error {
	if store == nil {
		return fmt.Errorf("no CheckpointDir is configured for rollback")
	}
	if s.epoch >= budget {
		return fmt.Errorf("restart budget (%d) exhausted", budget)
	}
	wave, err := store.LatestCommon(ranks)
	if err != nil {
		return fmt.Errorf("checkpoint scan: %w", err)
	}
	if wave < 0 {
		return fmt.Errorf("no committed checkpoint wave to roll back to")
	}
	var states [][]byte
	if preload {
		states = make([][]byte, ranks)
		for rank := range states {
			if states[rank], err = store.Load(rank, wave); err != nil {
				return fmt.Errorf("rollback to wave %d: %w", wave, err)
			}
		}
	}
	if err := store.PruneLogs(); err != nil {
		return fmt.Errorf("rollback to wave %d: %w", wave, err)
	}
	*s = epochSeed{epoch: s.epoch + 1, wave: wave, states: states}
	return nil
}

// procBody is one physical process's life, the one both launchers run: it
// builds the protocol stack the spec asks for on its endpoint, restores a
// §3.4 fork or a localized relaunch's replay state, runs the application
// and, once the application has returned, keeps the engine progressing
// until the launcher says the epoch is over. The launcher fills env with
// the process's identity, harness, store and restore bytes.
type procBody struct {
	cfg    Config
	layout core.Layout
	nw     *transport.Network
	det    *detect.Service // nil in a worker: the coordinator injects failures
	env    *Env
	rec    *Recorder // send recorder (TraceSends), or nil
	state  []byte    // the replay state to restore, or nil for a fresh start
	forked bool      // state is a §3.4 fork, which the substitute announced
}

// procOutcome is how a process body ended, when not by finishing.
type procOutcome struct {
	crashed   bool  // the process's own fail-stop unwound it
	exhausted int   // the rank that lost its last replica, -1 if none
	err       error // a panic outside the application
}

// run is the process body. finished receives the application's result —
// an application panic is its error — and returns whether to drain; the
// drain ends once stop reports the epoch over or the process is killed.
// The library's typed unwinds (a crash, replication exhaustion) end the
// body wherever they surface; a replay state that no longer restores ends
// it as exhaustion of its own rank, failing closed into rollback.
func (b procBody) run(app AppFunc, finished func(res any, err error) bool, stop func() bool) (out procOutcome) {
	out.exhausted = -1
	defer func() {
		if r := recover(); r != nil {
			if _, ok := mpi.ErrCrashed(r); ok {
				out.crashed = true
			} else if rank, ok := mpi.ErrExhausted(r); ok {
				out.exhausted = rank
			} else {
				out.err = fmt.Errorf("panic: %v", r)
			}
		}
	}()
	e := b.env
	id := b.layout.Phys(e.Rep, e.Rank)
	proc := mpi.NewProc(b.nw, id)
	if b.cfg.EagerLimit > 0 {
		proc.Engine().EagerLimit = b.cfg.EagerLimit
	}
	logDests := b.cfg.logRanks(b.layout)
	e.logSelf = logDests != nil && logDests[e.Rank]
	var protocol mpi.Protocol
	var collSeq uint64
	if b.cfg.Protocol == Native {
		protocol = mpi.NewNative(proc)
	} else {
		opts := core.Options{AckOnWait: b.cfg.AckOnWait, SDC: b.cfg.SDC,
			NoAckCoalesce: b.cfg.NoAckCoalesce, LogDests: logDests}
		if b.rec != nil {
			opts.SendRecorder = b.rec.RecordSend
		}
		if c := b.cfg; c.Corrupt && e.Rank == c.CorruptRank && e.Rep == c.CorruptRep {
			opts.Corrupt = func(dstRank int, seq uint64, data []byte) {
				if seq == c.CorruptSeq && len(data) > 0 {
					data[0] ^= 0xFF
				}
			}
		}
		rp := core.NewReplicated(proc, b.layout, b.cfg.Protocol.coreMode(), b.det, opts)
		if b.state != nil {
			v, err := rp.RestoreReplayState(b.state)
			if err != nil {
				out.exhausted = e.Rank
				return out
			}
			collSeq = v
			if !b.forked {
				// Announce the relaunch in-band; on this notification every
				// survivor that emits into world 0 re-adds this process as
				// a destination and replays its message log. A fork's
				// substitute has announced it already.
				rp.BroadcastRecovered(id)
			}
		}
		e.proto, protocol = rp, rp
	}
	e.World = mpi.NewWorld(proc, protocol, b.cfg.Ranks)
	if b.state != nil {
		e.World.SetCollSeq(collSeq)
	}
	if !finished(callApp(app, e)) {
		return out
	}
	drain(proc, stop)
	return out
}

// callApp runs the application, turning its own panics into its error;
// the library's typed unwinds pass through to procBody.run.
func callApp(app AppFunc, e *Env) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			_, crashed := mpi.ErrCrashed(r)
			_, exhausted := mpi.ErrExhausted(r)
			if crashed || exhausted {
				panic(r)
			}
			res, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	return app(e)
}

// drain keeps the engine responsive after the application body returns —
// the role MPI_Finalize's implicit synchronization plays in real MPI. A
// peer may still need this process's cooperation to finish: most notably,
// a mirror-protocol rendezvous duplicate arriving after this process's
// last receive needs its CTS/sink handshake, which only engine progress
// provides. The drain ends when stop holds (every process of the epoch
// has finished, or the coordinator's shutdown arrived), or when this
// process itself is killed.
func drain(proc *mpi.Proc, stop func() bool) {
	eng := proc.Engine()
	ep := eng.Endpoint()
	for !stop() {
		if ep.Crashed() {
			return
		}
		eng.Progress()
		ep.WaitActivity(200 * time.Microsecond)
	}
	// One final sweep for anything that raced the stop condition.
	eng.Progress()
}
