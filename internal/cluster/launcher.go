package cluster

import (
	"fmt"
	"io"
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
// with one piece of code per level. The ladder above one epoch is ladder;
// one epoch is epochLoop, which runs over a host's seats (runState's
// goroutines on a shared transport.Network, procSeats' worker processes
// behind the registry); one physical process's life is procBody; the
// calls an Env makes back into its launcher are harness.

// harness is the launcher-side surface an Env talks back to. Two
// implementations exist: runState (the in-process goroutine launcher) and
// workerState (the distributed worker runtime, which forwards these calls
// to the coordinator over the registry control plane).
type harness interface {
	// noteCkpt records that rank's writer completed its save for step;
	// the harness commits the wave once every rank has. A process's
	// checkpoint writer goroutine calls it, concurrently with its
	// application.
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

	timeout time.Duration // the per-epoch watchdog deadline
}

// err is the run-level failure both reports' FirstError lead with: the
// watchdog, named by its per-epoch deadline (after a rollback Elapsed
// accumulates across epochs while the watchdog fired within the final
// one), or the exhausted ladder.
func (t *Tally) err() error {
	if t.TimedOut {
		return fmt.Errorf("cluster: run timed out after %v", t.timeout)
	}
	return t.ExhaustErr
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
// run. It builds the layout and the failure schedule every epoch shares,
// validates both and the recoveries, opens the store, and runs epochs until
// one ends without exhausting replication. After an exhausted epoch it picks
// the latest committed wave, drops the epoch-relative replay states, and
// rolls every process back to it — at most len(Failures)+1 times, since
// each scheduled crash fires once. A timed-out epoch ends the run. The tally
// is filled as it goes; the error is a configuration the launcher could not
// start.
func ladder(cfg Config, t *Tally, tr *obs.Trace, preload bool,
	epoch func(core.Layout, *ckpt.Store, *schedule, epochSeed) epochOutcome) error {
	t.RestartWave, t.ReplayWave, t.timeout = -1, -1, cfg.timeout()
	layout, err := cfg.layout()
	var kills *schedule
	if err == nil {
		kills, err = newSchedule(layout, cfg.Failures)
	}
	if err == nil {
		err = validateRecoveries(layout, cfg.Recoveries)
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
		out := epoch(layout, store, kills, seed)
		mEpochs.Inc()
		gEpochMillis.Set(out.elapsed.Milliseconds())
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
		mRestarts.Inc()
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
// the new epoch must fail closed rather than restore them. Every process
// of the epoch the seed started has exited by now, so the bytes it was
// seeded with go back to the store's image buffers, where the new wave's
// loads find them.
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
	for _, st := range s.states {
		store.ReleaseImage(st)
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

// seatEvent is what a seat reports to the epoch loop: its application
// returned (done), it exited (out), or — a §3.4 fork, in process only — its
// slot's substitute asks the loop to start the revived replica from fork.
type seatEvent struct {
	proc int
	done bool
	fork *replaySeed
	out  procOutcome
}

// seats is how one host runs an epoch's processes: runState as goroutines
// on a shared transport.Network, procSeats as worker OS processes behind
// the registry. The epoch loop calls every method from its own goroutine;
// the seats report back on the loop's event channel.
type seats interface {
	// start runs slot proc, fresh (seed nil) or restored from seed.
	start(proc int, seed *replaySeed) error
	// died tells the survivors that proc's process died.
	died(proc int)
	// teardown kills every live seat at once.
	teardown()
	// finish releases every seat draining after its application.
	finish()
	// control is the host's control plane, its events for onControl and
	// its health tick for probe; nil channels in process.
	control() (<-chan regEvent, <-chan time.Time)
	onControl(ev regEvent)
	probe()
}

// epochLoop is one epoch, the one loop both launchers run over their
// seats. It starts a seat per layout slot, then selects on seat events,
// the watchdog and the host's control plane until every seat has exited:
// a dead logging rank is relaunched alone, replication exhaustion and the
// watchdog tear the epoch down, and once every live seat's application
// has returned the drains are released.
type epochLoop struct {
	host     seats
	layout   core.Layout
	store    *ckpt.Store
	logRanks []bool // ranks under sender-based message logging (Config.logRanks)
	budget   int    // localized relaunches one epoch may make: len(Failures)+1
	tr       *obs.Trace
	sink     io.Writer // the coordinator's log lines
	events   chan seatEvent

	live    []int  // running incarnations per slot
	done    []bool // the slot's latest incarnation returned from its application
	running int
	tearing bool // lost or finished: exits are bookkeeping only
	torn    bool // the host has killed every seat
	out     epochOutcome
}

func newEpochLoop(cfg Config, layout core.Layout, store *ckpt.Store, tr *obs.Trace, sink io.Writer) *epochLoop {
	return &epochLoop{layout: layout, store: store, logRanks: cfg.logRanks(layout),
		budget: len(cfg.Failures) + 1, tr: tr, sink: sink,
		events: make(chan seatEvent, 2*layout.Procs()),
		live:   make([]int, layout.Procs()), done: make([]bool, layout.Procs()),
		out: epochOutcome{rank: -1, replayWave: -1}}
}

// run executes the epoch on host and returns its outcome once every seat
// has exited.
func (l *epochLoop) run(host seats, timeout time.Duration) epochOutcome {
	l.host = host
	watchdog := time.NewTimer(timeout)
	defer watchdog.Stop()
	start := time.Now()
	for p := 0; p < len(l.live) && l.out.err == nil; p++ {
		if err := l.start(p, nil); err != nil {
			l.out.err = fmt.Errorf("cluster: start process %d: %w", p, err)
		}
	}
	ctl, tick := host.control()
	for l.teardown(); l.running > 0; l.teardown() {
		select {
		case ev := <-l.events:
			switch {
			case ev.fork != nil:
				if !l.tearing {
					_ = l.start(ev.proc, ev.fork)
				}
			case ev.done:
				l.appDone(ev.proc)
			default:
				l.exited(ev.proc, ev.out)
			}
		case ev := <-ctl:
			host.onControl(ev)
		case <-tick:
			if !l.tearing {
				host.probe()
			}
		case <-watchdog.C:
			l.out.timedOut = true
		}
	}
	l.out.elapsed = time.Since(start)
	return l.out
}

func (l *epochLoop) start(p int, seed *replaySeed) error {
	if err := l.host.start(p, seed); err != nil {
		return err
	}
	l.live[p]++
	l.running++
	l.done[p] = false
	return nil
}

// exited handles a seat's exit. A process death is announced to the
// survivors and, for a logging rank, climbs to the localized-replay rung;
// exhaustion, or a relaunch that cannot be made, escalates to rollback.
func (l *epochLoop) exited(p int, out procOutcome) {
	l.live[p]--
	l.running--
	if l.tearing {
		return
	}
	if out.crashed {
		l.host.died(p)
		rank := l.layout.RankOf(transport.ProcID(p))
		if l.logRanks != nil && l.logRanks[rank] && !l.relaunch(p, rank) {
			out.exhausted, out.rank = true, rank
		}
	}
	if out.exhausted {
		l.exhaust(out.rank)
		return
	}
	l.complete()
}

// relaunch is the localized-replay rung: validate the dead logging rank's
// newest (checkpoint, replay-state) pair end to end and start its slot
// alone from it; the survivors replay their message logs when it
// announces itself. It reports false — fail closed into rollback, never
// garbage — when the epoch's replay budget is spent or the pair does not
// load.
func (l *epochLoop) relaunch(p, rank int) bool {
	var seed *replaySeed
	err := fmt.Errorf("replay budget (%d) spent", l.budget)
	if l.out.replays < l.budget {
		if seed, err = loadReplay(l.store, rank); err == nil {
			err = l.start(p, seed)
		}
	}
	if err != nil {
		fmt.Fprintf(l.sink, "[coordinator] proc %d (rank %d): localized replay unavailable (%v); global rollback\n", p, rank, err)
		return false
	}
	l.out.replays++
	l.out.replayWave = seed.wave
	mReplays.Inc()
	detail := fmt.Sprintf("relaunched alone from wave %d; survivors replay their logs", seed.wave)
	ev := obs.Ev(obs.StageReplay, detail)
	ev.Proc, ev.Rank, ev.Wave = p, rank, seed.wave
	l.tr.Emit(ev)
	fmt.Fprintf(l.sink, "[coordinator] proc %d (rank %d) %s\n", p, rank, detail)
	return true
}

// exhaust records that rank lost its last replica: the epoch is lost and
// the ladder rolls back. A rank learned after the fact (a worker's exit
// code carries none, its registry report does) completes the record.
func (l *epochLoop) exhaust(rank int) {
	if !l.tearing || l.out.exhausted && l.out.rank < 0 {
		l.out.exhausted, l.out.rank = true, rank
	}
}

// teardown kills every seat, once, when the epoch is lost: a seat could
// not start, replication ran out, or the watchdog fired — the last even
// after the drains were released.
func (l *epochLoop) teardown() {
	if !l.torn && (l.out.err != nil || l.out.exhausted || l.out.timedOut) {
		l.tearing, l.torn = true, true
		l.host.teardown()
	}
}

func (l *epochLoop) appDone(p int) {
	l.done[p] = true
	l.complete()
}

// complete releases the drains once every live seat's application has
// returned.
func (l *epochLoop) complete() {
	if l.tearing {
		return
	}
	for p, n := range l.live {
		if n > 0 && !l.done[p] {
			return
		}
	}
	l.tearing = true
	l.host.finish()
}

// replaySeed carries everything a restored process resumes from: the
// checkpoint wave (-1 for a fork), the application state, and the encoded
// protocol replay state. A localized relaunch reads its rank's own newest
// wave from the store, app into one of the store's image buffers, which
// goes back once the incarnation has exited; a §3.4 fork (fork set) takes
// both states from its live substitute.
type replaySeed struct {
	wave  int
	app   []byte
	state []byte
	fork  bool
}

// loadReplay loads rank's newest replay-eligible wave from the store — the
// pre-flight of the localized relaunch. Only the NEWEST (checkpoint, mlog)
// pair is ever usable: the rank's last checkpoint acknowledgement already
// truncated the senders' logs up to it, so any failure here means the
// localized rung is gone and the caller must fall back to a global
// rollback.
func loadReplay(store *ckpt.Store, rank int) (*replaySeed, error) {
	if store == nil {
		return nil, fmt.Errorf("cluster: no checkpoint store for localized replay")
	}
	wave, err := store.LatestLog(rank)
	if err != nil {
		return nil, err
	}
	if wave < 0 {
		return nil, fmt.Errorf("cluster: rank %d has no replay-eligible checkpoint wave", rank)
	}
	return readReplay(store, rank, wave)
}

// readReplay loads rank's checkpoint and replay state of wave, validating
// the replay state end to end.
func readReplay(store *ckpt.Store, rank, wave int) (*replaySeed, error) {
	app, err := store.Load(rank, wave)
	if err != nil {
		return nil, err
	}
	state, err := store.LoadLog(rank, wave)
	if err == nil {
		err = core.ValidateReplayState(state)
	}
	if err != nil {
		store.ReleaseImage(app)
		return nil, err
	}
	return &replaySeed{wave: wave, app: app, state: state}, nil
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

// procOutcome is how a process ended, when not by finishing.
type procOutcome struct {
	crashed   bool  // the process died: its own fail-stop, or a signal
	exhausted bool  // it saw a rank lose its last replica
	rank      int   // that rank; -1 when unknown
	err       error // a panic outside the application
}

// run is the process body. finished receives the application's result —
// an application panic is its error, and so is the failure of its last
// checkpoint wave — and returns whether to drain; the drain ends once stop
// is closed (the epoch is over) or the process is killed. The library's
// typed unwinds (a crash, replication exhaustion) end the body wherever
// they surface; a replay state that no longer restores ends it as
// exhaustion of its own rank, failing closed into rollback. However the
// body ends, its checkpoint writer has returned before run does: the
// launcher reads the store back only after every process has exited.
func (b procBody) run(app AppFunc, finished func(res any, err error) bool, stop <-chan struct{}) (out procOutcome) {
	e := b.env
	defer func() {
		if r := recover(); r != nil {
			if _, ok := mpi.ErrCrashed(r); ok {
				out.crashed = true
			} else if rank, ok := mpi.ErrExhausted(r); ok {
				out.exhausted, out.rank = true, rank
			} else {
				out.err = fmt.Errorf("panic: %v", r)
			}
		}
		e.reap(true)
		if out.err == nil {
			out.err = e.waveErr
		}
	}()
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
				out.exhausted, out.rank = true, e.Rank
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
	res, err := callApp(app, e)
	if ferr := e.Flush(); err == nil {
		err = ferr
	}
	if !finished(res, err) {
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
// provides. The drain ends when stop is closed (every process of the
// epoch has finished, or the coordinator's shutdown arrived), or when this
// process itself is killed.
func drain(proc *mpi.Proc, stop <-chan struct{}) {
	eng := proc.Engine()
	ep := eng.Endpoint()
	for !ep.Crashed() {
		eng.Progress()
		select {
		case <-stop:
			// One final sweep for anything that raced the stop.
			eng.Progress()
			return
		default:
			ep.WaitActivity(200 * time.Microsecond)
		}
	}
}
