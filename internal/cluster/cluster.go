// Package cluster is the launcher: it spawns the layout's physical
// processes as goroutines (r·n under uniform replication, Σ degrees
// under a partial-replication degree vector), wires the transport, the
// failure-detection service and the chosen protocol, builds each
// process's application world (the paper's Figure 6 MPI_COMM_WORLD
// separation), and orchestrates crash injection and recovery schedules.
// It is the simulation counterpart of mpirun on the paper's 64-node
// Grid'5000 testbed.
package cluster

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Protocol selects the communication stack configuration for a run.
type Protocol string

// Available protocols.
const (
	// Native runs without replication (r is forced to 1): the baseline
	// whose wall-clock time overheads are measured against.
	Native Protocol = "native"
	// SDR is the paper's protocol (parallel scheme, leaderless).
	SDR Protocol = "sdr"
	// Mirror is the MR-MPI-style baseline.
	Mirror Protocol = "mirror"
	// Leader is the rMPI/redMPI-style semi-active baseline.
	Leader Protocol = "leader"
)

// RecoveryMode selects how the loss of a rank's LAST replica is handled —
// the shape of the recovery ladder above the substitution rung.
type RecoveryMode string

const (
	// RecoveryRollback (the default, also selected by the empty string)
	// escalates straight to the global rung: the epoch is torn down and
	// every process restarts from the latest committed checkpoint wave.
	RecoveryRollback RecoveryMode = "rollback"
	// RecoveryLog arms sender-based message logging for every degree-1
	// rank, inserting the localized-replay rung between substitution and
	// global rollback: each process copies the payloads it sends to a
	// logging-enabled rank into a per-sender log (truncated by the
	// receiver's checkpoint acknowledgements), and when such a rank dies
	// only IT is relaunched — from its own latest checkpoint plus its
	// persisted replay state — while the survivors park on their next
	// dependence and re-send from their logs. Send-determinism makes the
	// relaunched rank's regenerated messages identical, so the sequencer
	// dedup machinery absorbs every overlap. Requires Protocol SDR and a
	// CheckpointDir; if the replay state is missing or fails to decode,
	// the run falls back to the global rollback rung.
	RecoveryLog RecoveryMode = "log"
)

// FailureEvent schedules a fail-stop crash: the victim replica kills
// itself when its application reaches Step(AtStep).
type FailureEvent struct {
	Rank, Rep int
	AtStep    int
}

// RecoveryEvent schedules the §3.4 recovery of a previously crashed
// replica of a degree-2 rank, performed by its substitute at the first
// step >= AtStep at which the fork can be captured (no rendezvous message
// buffered). The application must pass a snapshot function to Step.
type RecoveryEvent struct {
	Rank, Rep int
	AtStep    int
}

// Config describes one run.
type Config struct {
	Ranks       int
	Replication int // ignored (forced to 1) for Native
	Protocol    Protocol

	// Delay is the simulated network model of the in-process wire. UseTCP
	// runs on real loopback sockets instead; their own latency applies and
	// Delay is ignored.
	Delay  *transport.DelayModel
	UseTCP bool

	// EagerLimit overrides the eager/rendezvous switch (0 = default).
	EagerLimit int

	// AckOnWait and SDC select the protocol ablations (see core.Options).
	AckOnWait bool
	SDC       bool

	// NoAckCoalesce disables acknowledgement coalescing (see
	// core.Options.NoAckCoalesce); the default is coalescing on.
	NoAckCoalesce bool
	// Corrupt injects payload corruption on replica CorruptRep of rank
	// CorruptRank for message sequence CorruptSeq (SDC experiments).
	Corrupt     bool
	CorruptRank int
	CorruptRep  int
	CorruptSeq  uint64

	// UnreplicatedRanks lists logical ranks that run with a single
	// replica under an otherwise replicated protocol (partial
	// replication — the paper's §5 outlook). The launcher builds a
	// degree-aware layout: only the replicas that exist get physical
	// processes (a dense ID space, no phantom slots), and the world-0
	// instance serves every world through the standard substitution
	// machinery.
	UnreplicatedRanks []int

	// Degrees optionally gives every rank's replication degree
	// explicitly (len == Ranks, each in [1, Replication]); it subsumes
	// UnreplicatedRanks, which further forces the listed ranks to
	// degree 1. Nil means the uniform Replication everywhere.
	Degrees []int

	// TraceSends attaches a send-determinism recorder to every replica.
	TraceSends bool
	KeepEvents int

	Failures   []FailureEvent
	Recoveries []RecoveryEvent

	// CheckpointDir, when set, gives every process access to a shared
	// checkpoint store (Env.Checkpoint / Env.Restored): the
	// paper's combined replication + application-level checkpointing
	// configuration (§1, §4.1). Writes follow redundant-execution I/O
	// rules: only the designated writer replica touches the file. The
	// harness commits a wave once every rank's writer has saved it, and
	// prunes superseded waves.
	//
	// CheckpointDir also arms the second rung of the recovery ladder:
	// when the last replica of a rank dies, Run tears the epoch down and
	// restarts every process from the latest committed wave instead of
	// reporting a failure (see Run).
	CheckpointDir string

	// RecoveryMode picks the ladder shape above substitution: "" or
	// RecoveryRollback for global rollback only, RecoveryLog to add the
	// localized-replay rung for degree-1 ranks (see RecoveryMode).
	RecoveryMode RecoveryMode

	// Timeout is the watchdog deadline for one run epoch (default 60s).
	Timeout time.Duration
}

// validateRecovery rejects unusable recovery configurations: the log mode
// needs the SDR protocol (the replay argument rests on send-determinism
// and the ack/sequencer machinery) and a checkpoint store (the replay
// state rides the checkpoint waves).
func (c Config) validateRecovery() error {
	switch c.RecoveryMode {
	case "", RecoveryRollback:
		return nil
	case RecoveryLog:
		if c.Protocol != SDR {
			return fmt.Errorf("cluster: RecoveryMode log requires the sdr protocol (got %q)", c.Protocol)
		}
		if c.CheckpointDir == "" {
			return fmt.Errorf("cluster: RecoveryMode log requires a CheckpointDir (the replay state rides the checkpoint waves)")
		}
		return nil
	default:
		return fmt.Errorf("cluster: unknown RecoveryMode %q (want log or rollback)", c.RecoveryMode)
	}
}

// logRanks marks the logical ranks running with sender-based message
// logging: every degree-1 rank when the log mode is armed, nil otherwise.
func (c Config) logRanks(l core.Layout) []bool {
	if c.RecoveryMode != RecoveryLog {
		return nil
	}
	logged := make([]bool, l.N)
	any := false
	for rank := 0; rank < l.N; rank++ {
		if l.Degree(rank) == 1 {
			logged[rank] = true
			any = true
		}
	}
	if !any {
		return nil
	}
	return logged
}

// LoggedRanks lists, ascending, the logical ranks a run of c arms
// sender-based message logging for: every degree-1 rank under
// RecoveryLog, none otherwise, and none when c's degree vector does not
// build a layout (the run reports that error).
func (c Config) LoggedRanks() []int {
	l, err := c.layout()
	if err != nil {
		return nil
	}
	var ranks []int
	for rank, logged := range c.logRanks(l) {
		if logged {
			ranks = append(ranks, rank)
		}
	}
	return ranks
}

// timeout returns the effective per-epoch watchdog deadline.
func (c Config) timeout() time.Duration {
	if c.Timeout <= 0 {
		return 60 * time.Second
	}
	return c.Timeout
}

func (c Config) replication() int {
	if c.Protocol == Native {
		return 1
	}
	if c.Replication <= 0 {
		return 2
	}
	return c.Replication
}

// layout builds the (possibly degree-aware) replica layout for the run.
func (c Config) layout() (core.Layout, error) {
	degrees, err := degreeVector(c.Ranks, c.replication(), c.Degrees, c.UnreplicatedRanks)
	if err != nil {
		return core.Layout{}, err
	}
	return core.NewLayout(c.Ranks, c.replication(), degrees)
}

// InProcessOnlyError names a Config field that RunDistributed cannot
// honour: it only means something to processes sharing one address space
// (a simulated wire, the in-process ablations, the send recorders, or a
// §3.4 fork).
type InProcessOnlyError struct{ Field string }

func (e *InProcessOnlyError) Error() string {
	return fmt.Sprintf("cluster: Config.%s is in-process only; RunDistributed cannot honour it", e.Field)
}

// inProcessOnly reports the first in-process-only field that is set.
func (c Config) inProcessOnly() error {
	for _, f := range []string{"Delay", "UseTCP", "EagerLimit", "AckOnWait", "SDC", "NoAckCoalesce",
		"Corrupt", "CorruptRank", "CorruptRep", "CorruptSeq", "TraceSends", "KeepEvents", "Recoveries"} {
		if !reflect.ValueOf(c).FieldByName(f).IsZero() {
			return &InProcessOnlyError{Field: f}
		}
	}
	return nil
}

// coreMode maps a protocol name to the replication scheme.
func (p Protocol) coreMode() core.Mode {
	switch p {
	case Mirror:
		return core.ModeMirror
	case Leader:
		return core.ModeLeader
	default:
		return core.ModeParallel
	}
}

// validateRecoveries rejects recovery events that target replicas the
// layout does not contain, or a rank whose degree is not 2.
func validateRecoveries(l core.Layout, recoveries []RecoveryEvent) error {
	for _, r := range recoveries {
		if err := checkTarget(l, "recovery", r.Rank, r.Rep); err != nil {
			return err
		}
		if d := l.Degree(r.Rank); d != 2 {
			return &recoveryDegreeError{rank: r.Rank, degree: d}
		}
	}
	return nil
}

// recoveryDegreeError rejects a recovery event on a rank whose degree is
// not 2: the §3.4 fork has exactly one substitute to fork from.
type recoveryDegreeError struct{ rank, degree int }

func (e *recoveryDegreeError) Error() string {
	return fmt.Sprintf("cluster: recovery event on rank %d, which runs %d replica(s); recovery requires degree 2 (paper §3.4)",
		e.rank, e.degree)
}

// degreeVector merges an explicit per-rank degree vector with an
// unreplicated-rank list into the form core.NewLayout takes: nil for the
// uniform degree r, else one entry per rank.
func degreeVector(ranks, r int, degrees, unreplicated []int) ([]int, error) {
	if len(degrees) == 0 && len(unreplicated) == 0 {
		return nil, nil
	}
	out := make([]int, ranks)
	if len(degrees) > 0 {
		if len(degrees) != ranks {
			return nil, fmt.Errorf("cluster: %d degrees for %d ranks", len(degrees), ranks)
		}
		copy(out, degrees)
	} else {
		for i := range out {
			out[i] = r
		}
	}
	for _, rank := range unreplicated {
		if rank < 0 || rank >= ranks {
			return nil, fmt.Errorf("cluster: unreplicated rank %d outside [0,%d)", rank, ranks)
		}
		out[rank] = 1
	}
	return out, nil
}

// Env is what the application function receives: its world communicator
// plus identity and harness hooks.
type Env struct {
	World *mpi.Comm
	Rank  int // logical rank
	Rep   int // replica index (0 for native)

	h            harness
	proto        *core.Replicated // nil under Native
	restored     []byte
	restoredStep int // checkpoint wave of a rollback restart, -1 otherwise
	store        *ckpt.Store
	logSelf      bool // this rank persists replay state with each checkpoint
	ranks, epoch int  // logical world size; rollback restarts before this epoch
	// ckptTurn is the run's one persisting turn, a token of capacity
	// one: a writer holds it across its wave's persist unless its process
	// is waiting for that wave (see persist).
	ckptTurn chan struct{}

	// Checkpoint waves off the step path, touched by the application's
	// goroutine only: the last wave captured, until reap takes it back
	// from its writer, and the error of a wave that failed, until
	// Checkpoint or Flush returns it.
	wave    *ckptWave
	waveErr error
}

// ckptWave is one checkpoint wave between its capture on the step path and
// its settling on the application's goroutine. The writer goroutine
// persists it and closes done; settle then sends frontier, if any.
type ckptWave struct {
	step     int
	img      []byte        // a copy of the application's state, from the store's buffers
	state    []byte        // the encoded replay state, or nil
	frontier []byte        // the delivery frontier to acknowledge once durable, or nil
	hurry    chan struct{} // closed once the process waits for this wave
	done     chan struct{}
	err      error // written by the writer before done closes
}

// Checkpoint captures the application state for this process's rank at a
// step and returns; a writer goroutine persists it. Under replication,
// only the writer replica (the lowest-index replica this process believes
// alive) captures anything; the others are no-ops, giving exactly-once
// output as in redundant-execution I/O. Requires Config.CheckpointDir.
//
// The capture is all that happens on the caller's step path: the writer
// election, a copy of data (the caller may change data as soon as
// Checkpoint returns), and, for a sender-logged rank, its replay state and
// delivery frontier. The writer then saves the image, then the replay
// state, then tells the harness, which commits the wave with the
// coordinated-commit marker once every rank's writer has saved it (and
// prunes superseded waves); only a committed wave is eligible for rollback
// restart. A logged rank's log truncation goes out at the first Step,
// Checkpoint or Flush after both of its files are durable.
//
// While the ranks step, a run persists one wave at a time: its processes'
// writers take turns, each holding a turn the run shares across its save,
// replay-state save and commit. The ranks of a coordinated checkpoint
// capture at nearly the same moment, so writers that persisted together
// would take every core the ranks step on; taking turns, they hold one.
// A process that waits for its own wave — at its next Checkpoint, Flush, a
// scheduled kill or its end — steps no more, so its writer goes without
// waiting for the turn: back-to-back waves and a run's last wave do not
// queue behind other ranks' persists. A distributed worker hosts one
// process, so its writer takes turns with no one.
//
// At most one wave per process is in flight: Checkpoint first waits for
// the previous one. If that wave failed, Checkpoint returns its error
// instead of capturing step, and the failed wave never commits. A process
// whose application returns waits for its last wave, whose error then
// becomes the application's; so does the launcher, before it reads the
// store back, for a process that crashed or was torn down — except a
// distributed worker killed by a signal, whose in-flight wave is lost
// (it never commits, so rollback picks the wave before).
func (e *Env) Checkpoint(step int, data []byte) error {
	if e.store == nil {
		return fmt.Errorf("cluster: no CheckpointDir configured")
	}
	if err := e.Flush(); err != nil {
		return err
	}
	if !e.isWriter() {
		return nil
	}
	w := &ckptWave{step: step, img: e.store.CopyImage(data), hurry: make(chan struct{}), done: make(chan struct{})}
	if e.logSelf && e.proto != nil {
		// Localized-replay bookkeeping for a logging-enabled rank: capture
		// the protocol replay state and the delivery frontier with the app
		// state. The frontier is acknowledged — senders truncate their
		// message logs — only after both files are durable; until then
		// senders keep everything, so a capture or save failure just leaves
		// this wave replay-ineligible (and the logs longer), never unsafe.
		// A finished Send may still await its own acks: collect them first,
		// or the capture refuses the wave.
		e.proto.Quiesce()
		state, err := e.proto.CaptureReplayState(e.World.CollSeq())
		switch {
		case err == nil:
			w.state, w.frontier = state, e.proto.LogFrontier()
		case !errors.Is(err, core.ErrReplayBuffered):
			ev := obs.Ev(obs.StageReplay, "wave not replay-eligible: "+err.Error())
			ev.Rank, ev.Rep, ev.Wave = e.Rank, e.Rep, step
			obs.DefaultTrace.Emit(ev)
		}
	}
	e.wave = w
	go e.persist(w)
	return nil
}

// persist is the writer goroutine of one wave: the image, then the replay
// state, then the harness's tally, in the order a synchronous save made,
// all in the run's persisting turn — or without it, once the process waits
// for this wave and so leaves the CPU to it.
func (e *Env) persist(w *ckptWave) {
	defer close(w.done)
	select {
	case e.ckptTurn <- struct{}{}:
		defer func() { <-e.ckptTurn }()
	case <-w.hurry:
	}
	err := e.store.Save(e.Rank, w.step, w.img, true)
	e.store.ReleaseImage(w.img)
	if err == nil && w.state != nil {
		err = e.store.SaveLog(e.Rank, w.step, w.state)
	}
	if err == nil {
		err = e.h.noteCkpt(e.Rank, w.step)
	}
	if err != nil {
		w.err = fmt.Errorf("cluster: checkpoint wave %d of rank %d: %w", w.step, e.Rank, err)
	}
}

// Flush waits for this process's last checkpoint wave to persist, sends
// its log truncation, and returns the error of a wave that failed since
// the last Checkpoint or Flush. Callers that read their own files back
// from the store call it first. It does not wait for other processes'
// writers: a wave is committed only once every rank's writer has saved it.
func (e *Env) Flush() error {
	e.settle(true)
	err := e.waveErr
	e.waveErr = nil
	return err
}

// settle sends the log truncation of the last wave once its writer has
// returned, waiting for it when wait is set. It drives the protocol, so
// only the application's goroutine calls it.
func (e *Env) settle(wait bool) {
	if w := e.reap(wait); w != nil && w.frontier != nil {
		e.proto.BroadcastLogTruncate(w.frontier)
	}
}

// reap takes the last wave back once its writer has returned, waiting for
// it when wait is set. A failed wave's error stays for Checkpoint or Flush
// and reap returns nil for it. It sends nothing, so a process unwinding
// from a crash may call it.
func (e *Env) reap(wait bool) *ckptWave {
	w := e.wave
	if w == nil {
		return nil
	}
	select {
	case <-w.done:
	default:
		if !wait {
			return nil
		}
		close(w.hurry) // this process steps no more until the wave is done
		<-w.done
	}
	e.wave = nil
	if w.err != nil {
		e.waveErr = w.err
		return nil
	}
	return w
}

// CanCheckpoint reports whether this run has a checkpoint store configured
// — applications use it to checkpoint opportunistically (every run under
// the distributed launcher has one; plain in-process runs only when
// Config.CheckpointDir is set).
func (e *Env) CanCheckpoint() bool { return e.store != nil }

// LatestCheckpoint returns the newest step checkpointed by all ranks, or
// -1 (the coordinated restart line).
func (e *Env) LatestCheckpoint() (int, error) {
	if e.store == nil {
		return -1, fmt.Errorf("cluster: no CheckpointDir configured")
	}
	return e.store.LatestCommon(e.ranks)
}

// isWriter reports whether this replica is its rank's designated I/O
// writer: the lowest-index replica it believes alive.
func (e *Env) isWriter() bool {
	if e.proto == nil {
		return true
	}
	w := writerRep(*e.proto.Layout(), e.Rank, e.proto.AliveView)
	if w < 0 {
		// Torn view: this replica believes no replica of its own rank is
		// alive (a transient state around recovery). Electing a writer
		// from such a view is how two concurrent writers happen — stay
		// conservative and write nothing; the commit marker keeps an
		// unwritten wave from ever being chosen for restart.
		return false
	}
	return w == e.Rep
}

// writerRep elects a rank's designated I/O writer under an alive view: the
// lowest-index replica believed alive, or -1 when the view has none.
func writerRep(l core.Layout, rank int, alive func(transport.ProcID) bool) int {
	for rep := 0; rep < l.Degree(rank); rep++ {
		if alive(l.Phys(rep, rank)) {
			return rep
		}
	}
	return -1
}

// Restored returns the application snapshot this process resumes from —
// the substitute's fork in a §3.4 recovery, or this rank's checkpoint in a
// rollback restart — or nil for a normal start.
func (e *Env) Restored() []byte { return e.restored }

// RestoredStep returns the checkpoint wave a rollback restart — or a
// localized-replay relaunch — resumed from, or -1 when this is a normal
// start. It distinguishes the launcher-seeded checkpoint bytes from a
// recovery fork's snapshot, whose format the substitute chose.
//
// Resumable applications must skip work that preceded the restored wave,
// collectives included: under a localized relaunch the survivors do NOT
// re-execute, so a resumed process that repeats a pre-restore Barrier
// (or any collective) double-counts it in the restored collective
// sequence and desynchronizes from them permanently.
func (e *Env) RestoredStep() int { return e.restoredStep }

// Epoch returns the restart epoch: 0 for the first execution, incremented
// by every full rollback restart.
func (e *Env) Epoch() int { return e.epoch }

// Replicated exposes the protocol layer for inspection (nil under Native).
func (e *Env) Replicated() *core.Replicated { return e.proto }

// Step marks an application step boundary. The harness uses it to realize
// scheduled crashes (the calling replica kills itself) and recoveries: at
// the first boundary at or after the event's AtStep where its protocol
// state can be captured, the substitute forks the replacement, using
// snapshot for the application state at this boundary. snapshot may be
// nil only where no recovery can fire. Step must be called at quiescent
// points: all requests completed.
func (e *Env) Step(step int, snapshot func() []byte) {
	e.settle(false)
	e.h.stepHook(e, step, snapshot)
}

// ProcReport describes one physical process's outcome. Under partial
// replication only the replicas the degree vector names exist — the
// physical-ID space is dense, so there are no placeholder entries.
type ProcReport struct {
	Proc    transport.ProcID
	Rank    int
	Rep     int
	Crashed bool // scheduled fail-stop realized
	Err     error
	Result  any
	Elapsed time.Duration
}

// Report aggregates a run. After a rollback restart, Procs/Stats/Recorders
// describe the final epoch (the one that ran to completion) while the
// embedded Tally accounts for every epoch.
type Report struct {
	Tally
	Config Config
	Procs  []ProcReport
	Stats  transport.StatsSnapshot
	// Recorders maps physical proc → send recorder (TraceSends runs).
	Recorders map[transport.ProcID]*Recorder
	// SDCDetected sums hash mismatches across replicas (SDC runs).
	SDCDetected int
}

// FirstError returns the first non-crash error, if any.
func (r *Report) FirstError() error {
	if err := r.Tally.err(); err != nil {
		return err
	}
	for _, p := range r.Procs {
		if p.Err != nil {
			return fmt.Errorf("proc %d (rank %d rep %d): %w", p.Proc, p.Rank, p.Rep, p.Err)
		}
	}
	return nil
}

// ResultOf returns the result of replica rep of rank.
func (r *Report) ResultOf(rank, rep int) any {
	for _, p := range r.Procs {
		if p.Rank == rank && p.Rep == rep {
			return p.Result
		}
	}
	return nil
}

// AppFunc is the application: an SPMD body run by every replica of every
// rank. Its result lands in the report.
type AppFunc func(env *Env) (any, error)

// runState is the goroutine seats of one run epoch — every process a
// goroutine on one shared transport.Network — and the harness their Envs
// call.
type runState struct {
	cfg    Config
	layout core.Layout
	nw     *transport.Network
	det    *detect.Service
	app    AppFunc

	commitLine               // the checkpoint store and its wave tally
	ckptTurn   chan struct{} // the run's, shared by every epoch's Envs (Env.ckptTurn)
	kills      *schedule
	// seed is the rollback this epoch resumes from: every replica of rank
	// starts from seed.states[rank] (nil on the first epoch).
	seed epochSeed

	recovered []atomic.Bool // per Config.Recoveries event: performed this epoch

	events chan<- seatEvent // the epoch loop's
	stop   chan struct{}    // closed by finish: the drains end

	// Written by start, on the loop's goroutine; each report is filled by
	// its process and read once the loop has seen it exit.
	recorders map[transport.ProcID]*Recorder
	reports   []*ProcReport
	sdcTotal  atomic.Int64
}

// Run executes the application under the configured protocol and returns
// the aggregated report. It implements the full recovery ladder: replica
// substitution absorbs individual crashes inside an epoch; when the last
// replica of a rank dies the epoch is torn down and — if a committed
// checkpoint wave exists — every process is respawned on a fresh network
// with Env.Restored seeded from that wave, repeating until the application
// completes. Scheduled crashes fire at most once across epochs.
func Run(cfg Config, app AppFunc) *Report {
	rep := &Report{Config: cfg}
	ckptTurn := make(chan struct{}, 1)
	err := ladder(cfg, &rep.Tally, obs.DefaultTrace, true, func(layout core.Layout, store *ckpt.Store, kills *schedule, seed epochSeed) epochOutcome {
		var nw *transport.Network
		if cfg.UseTCP {
			var tw *transport.PeerWire
			var err error
			if nw, tw, err = transport.NewTCPNetwork(layout.Procs()); err != nil {
				// Loopback listen failed (exotic sandbox): run in-process.
				nw = transport.NewNetwork(layout.Procs(), cfg.Delay)
			} else {
				defer tw.Close()
			}
		} else {
			nw = transport.NewNetwork(layout.Procs(), cfg.Delay)
		}
		defer nw.Close()

		// Partial replication needs no special casing here: the
		// degree-aware layout's physical-ID space is dense, so every ID
		// names a process that really exists and the loop starts exactly
		// Σ degrees goroutines — no phantom slots, reports, or detector
		// traffic.
		loop := newEpochLoop(cfg, layout, store, obs.DefaultTrace, io.Discard)
		rs := &runState{
			cfg:        cfg,
			layout:     layout,
			nw:         nw,
			det:        detect.NewService(nw),
			app:        app,
			commitLine: commitLine{store: store, waves: waveTally{ranks: cfg.Ranks}},
			ckptTurn:   ckptTurn,
			kills:      kills,
			seed:       seed,
			recovered:  make([]atomic.Bool, len(cfg.Recoveries)),
			events:     loop.events,
			stop:       make(chan struct{}),
			recorders:  make(map[transport.ProcID]*Recorder),
		}
		out := loop.run(rs, cfg.timeout())
		rep.Procs, rep.Recorders, rep.SDCDetected = nil, rs.recorders, int(rs.sdcTotal.Load())
		for _, pr := range rs.reports {
			rep.Procs = append(rep.Procs, *pr)
		}
		rep.Stats = nw.Stats().Snapshot()
		return out
	})
	if err != nil {
		rep.Procs = []ProcReport{{Err: err}}
	}
	return rep
}

// start runs process p as a goroutine on the shared process body. A
// localized relaunch's seed carries its rank's checkpoint and replay
// state, a §3.4 fork's the substitute's state; seed is nil for a process
// that starts with its epoch.
func (rs *runState) start(p int, seed *replaySeed) error {
	id := transport.ProcID(p)
	rank, rep := rs.layout.RankOf(id), rs.layout.RepOf(id)
	env := &Env{Rank: rank, Rep: rep, h: rs, restoredStep: -1, store: rs.store,
		ckptTurn: rs.ckptTurn, ranks: rs.cfg.Ranks, epoch: rs.seed.epoch}
	b := procBody{cfg: rs.cfg, layout: rs.layout, nw: rs.nw, det: rs.det, env: env}
	switch {
	case seed != nil:
		// A fork resumes from its substitute's state (the substitute
		// revived the endpoint before announcing it); a localized relaunch
		// rolls only this rank back, to its own newest checkpoint wave.
		env.restored, env.restoredStep = seed.app, seed.wave
		b.state, b.forked = seed.state, seed.fork
		if !seed.fork {
			rs.nw.Revive(id)
		}
	case rs.seed.states != nil:
		// Rollback epoch: every replica of every rank resumes from the
		// wave the ladder selected.
		env.restored, env.restoredStep = rs.seed.states[rank], rs.seed.wave
	}
	if rs.cfg.TraceSends && rs.cfg.Protocol != Native {
		b.rec = NewRecorder(rs.cfg.KeepEvents)
		rs.recorders[id] = b.rec
	}
	// Slots report in start order; a recovered or relaunched replica
	// reports alongside — not instead of — its crashed predecessor.
	pr := &ProcReport{Proc: id, Rank: rank, Rep: rep}
	rs.reports = append(rs.reports, pr)
	go func() {
		start := time.Now()
		out := b.run(rs.app, func(res any, err error) bool {
			pr.Result, pr.Err = res, err
			if env.proto != nil {
				rs.sdcTotal.Add(int64(env.proto.SDCDetected()))
			}
			rs.events <- seatEvent{proc: p, done: true}
			return true
		}, rs.stop)
		pr.Elapsed, pr.Crashed = time.Since(start), out.crashed
		if out.err != nil {
			pr.Err = out.err
		}
		rs.events <- seatEvent{proc: p, out: out}
	}()
	return nil
}

// died has nothing to do in process: the victim's own kill made the
// detector broadcast its failure.
func (rs *runState) died(int) {}

// teardown kills every endpoint at once, so compute-bound survivors unwind
// promptly and no twin can take a failure notification for a substitution
// in an epoch that is already lost.
func (rs *runState) teardown() { rs.nw.KillAll() }

func (rs *runState) finish() { close(rs.stop) }

func (rs *runState) control() (<-chan regEvent, <-chan time.Time) { return nil, nil }
func (rs *runState) onControl(regEvent)                           {}
func (rs *runState) probe()                                       {}

// stepHook realizes the failure/recovery schedule at an application step
// boundary.
func (rs *runState) stepHook(e *Env, step int, snapshot func() []byte) {
	// Crash injection: the victim kills itself (fail-stop). The network
	// kill triggers the detector broadcast; the panic unwinds the app.
	self := rs.layout.Phys(e.Rep, e.Rank)
	if rs.kills.fire(self, step) {
		// The victim's last wave persists first, as it did when Checkpoint
		// wrote it: a kill one step past a wave finds the wave on disk.
		e.settle(true)
		kev := obs.Ev(obs.StageKill, "fail-stop crash injected")
		kev.Proc, kev.Rank, kev.Rep, kev.Step = int(self), e.Rank, e.Rep, step
		obs.DefaultTrace.Emit(kev)
		rs.nw.Kill(self)
		mpi.Crash(self)
	}
	// Recovery: performed by the substitute of the dead replica, at the
	// first step >= AtStep at which its state can be captured.
	for i, rec := range rs.cfg.Recoveries {
		if step < rec.AtStep || e.proto == nil {
			continue
		}
		dead := rs.layout.Phys(rec.Rep, rec.Rank)
		if e.Rank != rec.Rank || e.Rep == rec.Rep {
			continue // only a same-rank survivor can fork
		}
		if e.proto.AliveView(dead) {
			continue // not dead (yet): nothing to recover
		}
		if snapshot == nil {
			panic("cluster: recovery scheduled at a step with no snapshot function")
		}
		// §3.4: fork, revive, notify — in this order, with no sends in
		// between on the substitute. The capture wants an empty retention
		// table, which finished sends no longer imply, and refuses buffered
		// rendezvous traffic: the revived replica would answer the RTS too
		// and take the payload, so the fork waits for a later step.
		e.proto.Quiesce()
		state, err := e.proto.CaptureReplayState(e.World.CollSeq())
		if err != nil || !rs.recovered[i].CompareAndSwap(false, true) {
			continue
		}
		seed := &replaySeed{wave: -1, app: snapshot(), state: state, fork: true}
		rs.nw.Revive(dead)
		e.proto.BroadcastRecovered(dead)
		// This process is still running, so the loop starts the revived
		// replica before it can see the forking process exit.
		rs.events <- seatEvent{proc: int(dead), fork: seed}
	}
}
