package cluster

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
)

// The worker environment contract (the Env* names and their typed
// accessors) lives in env.go.

// DistConfig describes one distributed run: the run spec of Config,
// executed as real OS processes (one per layout slot) under a
// coordinator, plus what launching those processes needs. Failures
// schedule SIGKILLs: when the victim worker reaches Step(AtStep) it
// reports the boundary and the coordinator kills the process. Config's
// in-process-only fields (see InProcessOnlyError) must stay unset, and
// Timeout defaults to 2 minutes per epoch.
type DistConfig struct {
	Config

	// WorkerCmd is the argv used to exec one worker (default: this
	// binary, re-entered in worker mode via the env contract).
	WorkerCmd []string
	// WorkerEnv is extra environment for workers (application selection).
	WorkerEnv []string

	// LogSink receives the line-prefixed stdout/stderr streams of every
	// worker (default os.Stderr).
	LogSink io.Writer

	// HealthTimeout kills a worker whose control connection has been
	// silent for this long — the liveness probe backing the failure
	// detector (default 20s; workers ping every 500ms).
	HealthTimeout time.Duration
	// RejoinTimeout bounds a localized-replay rejoin handshake's wait for
	// survivor acks before the registry releases the joiner anyway
	// (default 10s). Tests shrink it; a timeout increments
	// sdr_cluster_rejoin_timeouts_total.
	RejoinTimeout time.Duration

	// NoRing disables the colocated shared-memory ring transport: every
	// pair stays on loopback TCP. Rings are on by default — in a
	// single-host run every pair is colocated.
	NoRing bool
}

// seat is worker proc's WorkerConfig for one epoch: the run spec with
// the layout's degree vector spelled out, and the steps of its scheduled
// kills that have not fired yet.
func (c DistConfig) seat(l core.Layout, proc int, killSteps []int, seed epochSeed) WorkerConfig {
	w := WorkerConfig{Proc: transport.ProcID(proc), RestartWave: seed.wave, Epoch: seed.epoch, ReplayWave: -1, KillSteps: killSteps}
	w.Ranks, w.Replication, w.Degrees = c.Ranks, l.R, l.DegreeVector()
	w.Protocol, w.CheckpointDir, w.RecoveryMode = c.Protocol, c.CheckpointDir, c.RecoveryMode
	return w
}

// DistProcReport is one worker's outcome in the final epoch.
type DistProcReport struct {
	Proc    transport.ProcID
	Rank    int
	Rep     int
	Crashed bool // scheduled SIGKILL realized
	Err     string
	Result  WorkerResult
}

// WorkerResult is the portable application result a distributed worker
// reports over the control plane (the cross-process counterpart of the
// in-process report's `any` result).
type WorkerResult struct {
	Checksum   float64
	Residual   float64
	Iterations int
}

// DistReport aggregates a distributed run. Like Report, Procs describes
// the final epoch while the embedded Tally accounts for every epoch.
type DistReport struct {
	Tally
	Replication int // the layout's maximum replication degree
	Procs       []DistProcReport

	// Trace is the coordinator-side recovery-ladder event chain
	// (park/kill/detect/replay/rollback); the workers' own events surface
	// as TRACE lines in the log sink.
	Trace *obs.Trace
	// Workers holds the end-of-run /metrics scrape of every worker that
	// was alive when the final epoch completed.
	Workers []obs.WorkerStats
	// EpochsSec is each epoch's wall-clock duration, in order.
	EpochsSec []float64
}

// FirstError returns the first failure of the run, if any: a worker's
// application error before the run's timeout or exhaustion, as
// Report.FirstError does.
func (r *DistReport) FirstError() error {
	for _, p := range r.Procs {
		if p.Err != "" {
			return fmt.Errorf("worker %d (rank %d rep %d): %s", p.Proc, p.Rank, p.Rep, p.Err)
		}
	}
	return r.Tally.err()
}

// RunDistributed executes the application as real OS processes — one per
// slot of the (possibly degree-aware) layout — and returns the aggregated
// report. It climbs the same recovery ladder as Run, over the same epoch
// loop: the coordinator spawns workers, hands out the rendezvous world
// through the registry, streams their output, SIGKILLs scheduled victims
// at their reported step boundaries, broadcasts failure notifications,
// relaunches a dead logging rank alone, and — when a worker reports
// replication exhaustion — tears the epoch down and respawns everything
// from the latest committed checkpoint wave in the shared store.
func RunDistributed(cfg DistConfig) *DistReport {
	rep := &DistReport{
		Tally:       Tally{RestartWave: -1, ReplayWave: -1},
		Replication: cfg.replication(),
		Trace:       obs.NewTrace(),
	}
	if err := cfg.inProcessOnly(); err != nil {
		rep.ExhaustErr = err
		return rep
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Minute
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = 20 * time.Second
	}
	if len(cfg.WorkerCmd) == 0 {
		exe, err := os.Executable()
		if err != nil {
			rep.ExhaustErr = fmt.Errorf("cluster: cannot locate worker binary: %w", err)
			return rep
		}
		cfg.WorkerCmd = []string{exe}
	}
	if cfg.LogSink == nil {
		cfg.LogSink = os.Stderr
	}
	err := ladder(cfg.Config, &rep.Tally, rep.Trace, false, func(l core.Layout, store *ckpt.Store, kills *schedule, seed epochSeed) epochOutcome {
		out := runProcEpoch(cfg, l, store, kills, seed, rep)
		rep.EpochsSec = append(rep.EpochsSec, out.elapsed.Seconds())
		return out
	})
	if err != nil {
		rep.ExhaustErr = err
	}
	return rep
}

// runProcEpoch sets one epoch's control plane up — the registry, the
// per-epoch ring directory, the fd budget — and runs the epoch loop over
// worker processes, filling the report's per-epoch fields.
func runProcEpoch(cfg DistConfig, layout core.Layout, store *ckpt.Store, kills *schedule, seed epochSeed, rep *DistReport) epochOutcome {
	procs := layout.Procs()
	reg, err := newRegistry(procs, cfg.Ranks, store, cfg.RejoinTimeout)
	if err != nil {
		return epochOutcome{err: err}
	}
	defer reg.Close()
	sink := &syncWriter{w: cfg.LogSink}

	// Per-epoch ring directory: colocated pairs negotiate mmap'd ring
	// files under it at rendezvous. Scoping the directory to one epoch
	// guarantees a rollback never resumes a torn ring stream — the
	// respawned world starts from empty rings.
	ringDir := ""
	if !cfg.NoRing {
		if d, err := os.MkdirTemp("", "sdr-ring-*"); err == nil {
			ringDir = d
			defer os.RemoveAll(d)
		}
	}

	// Fd-budget preflight: the coordinator holds two pipe ends and one
	// registry connection per worker, plus its listener and stdio. Raise
	// the soft RLIMIT_NOFILE toward that budget (or fail with both numbers
	// in hand) BEFORE the spawn loop — at 128–256 workers the default soft
	// limit of 1024 otherwise dies mid-spawn as EMFILE on pipe(2), which
	// presents as a half-built world instead of a clear answer.
	fdBudget := uint64(3*procs + 64)
	limit, err := transport.EnsureFileLimit(fdBudget)
	if err != nil {
		return epochOutcome{err: fmt.Errorf("cluster: fd preflight for %d workers: %w", procs, err)}
	}
	fmt.Fprintf(sink, "[coordinator] fd preflight: budget %d for %d workers, soft limit %d\n", fdBudget, procs, limit)

	health := time.NewTicker(time.Second)
	defer health.Stop()
	loop := newEpochLoop(cfg.Config, layout, store, rep.Trace, sink)
	h := &procSeats{cfg: cfg, kills: kills, epoch: seed, reg: reg, ringDir: ringDir, loop: loop,
		health: health, workers: make([]*distWorker, procs)}
	out := loop.run(h, cfg.timeout())
	rep.Workers, rep.Procs = h.scrapes, nil
	if out.err != nil {
		return out
	}
	for p, w := range h.workers {
		if !loop.done[p] && !w.Crashed && !out.timedOut && !out.exhausted {
			w.Err = "worker exited without a result"
		}
		rep.Procs = append(rep.Procs, w.DistProcReport)
	}
	return out
}

// distWorker is the coordinator's handle on one spawned worker process,
// and the report the epoch fills in for it.
type distWorker struct {
	DistProcReport
	cmd *exec.Cmd
}

// procSeats is the OS-process seats of one distributed epoch: a worker
// process per slot, spawned with its seat as the env contract, watched
// through its exit status and the registry.
type procSeats struct {
	cfg     DistConfig
	kills   *schedule
	epoch   epochSeed
	reg     *registry
	ringDir string
	loop    *epochLoop
	health  *time.Ticker
	workers []*distWorker
	scrapes []obs.WorkerStats
}

// start spawns slot p's worker. A localized relaunch's worker re-reads
// the wave the loop validated and learns which workers are already dead.
func (h *procSeats) start(p int, seed *replaySeed) error {
	wc := h.cfg.seat(h.loop.layout, p, h.kills.pending(transport.ProcID(p)), h.epoch)
	wc.Registry, wc.RingDir = h.reg.Addr(), h.ringDir
	if seed != nil {
		// The worker reads the wave itself: the coordinator's copy was only
		// the relaunch's pre-flight.
		h.loop.store.ReleaseImage(seed.app)
		h.reg.forget(p)
		wc.ReplayWave = seed.wave
		for q, n := range h.loop.live {
			if n == 0 && q != p {
				wc.DeadProcs = append(wc.DeadProcs, q)
			}
		}
	}
	w, err := spawnWorker(h.cfg, wc, h.loop.sink, h.loop.events)
	if err != nil {
		return err
	}
	h.workers[p] = w
	return nil
}

// died broadcasts the failure notification — the coordinator is the
// external failure detector — so the survivors' protocol layer can
// substitute, park for a localized replay, or report exhaustion.
func (h *procSeats) died(p int) {
	h.reg.announceDead(p)
	w := h.workers[p]
	ev := obs.Ev(obs.StageDetect, "worker process exited; failure broadcast to survivors")
	ev.Proc, ev.Rank, ev.Rep = p, w.Rank, w.Rep
	h.loop.tr.Emit(ev)
}

func (h *procSeats) teardown() {
	for p, w := range h.workers {
		if h.loop.live[p] > 0 {
			_ = w.cmd.Process.Kill()
		}
	}
}

// finish scrapes every live worker's /metrics — they are draining, their
// obs servers still up — then releases them with the shutdown broadcast.
// The scrape must come first: after shutdown the workers exit and the
// endpoints vanish.
func (h *procSeats) finish() {
	for p, w := range h.workers {
		if h.loop.live[p] == 0 {
			continue
		}
		ws := obs.WorkerStats{Proc: p, Rank: w.Rank, Rep: w.Rep, Addr: h.reg.obsAddr(p)}
		if ws.Addr == "" {
			ws.Err = "no obs address published"
		} else if m, err := obs.Scrape(ws.Addr, 2*time.Second); err != nil {
			ws.Err = err.Error()
		} else {
			ws.Scraped = true
			ws.Metrics = m
		}
		h.scrapes = append(h.scrapes, ws)
	}
	h.reg.broadcast(ctlMsg{Op: opShutdown}, -1)
}

func (h *procSeats) control() (<-chan regEvent, <-chan time.Time) { return h.reg.events, h.health.C }

// onControl handles one registry event. An exhaustion report counts even
// during teardown: it names the rank a worker's exit code cannot.
func (h *procSeats) onControl(ev regEvent) {
	l := h.loop
	if ev.kind == evExhausted {
		l.exhaust(ev.msg.Rank)
		return
	}
	if l.tearing {
		return
	}
	switch ev.kind {
	case evReady:
		// World table broadcast; workers are computing. Publish where
		// each worker's metrics live so a mid-run scraper (CI smoke, an
		// operator) can reach them.
		for p, w := range h.workers {
			if a := h.reg.obsAddr(p); a != "" && l.live[p] > 0 {
				fmt.Fprintf(l.sink, "[coordinator] worker %d (r%d.%d) metrics at http://%s/metrics\n",
					p, w.Rank, w.Rep, a)
			}
		}
	case evKillMe:
		// The victim is parked at its step boundary: realize the
		// scheduled fail-stop with a real SIGKILL.
		w := h.workers[ev.proc]
		pev := obs.Ev(obs.StagePark, "worker parked at scheduled kill boundary")
		pev.Proc, pev.Rank, pev.Rep, pev.Step = ev.proc, w.Rank, w.Rep, ev.msg.Step
		l.tr.Emit(pev)
		if h.kills.fire(transport.ProcID(ev.proc), ev.msg.Step) {
			w.Crashed = true
			_ = w.cmd.Process.Kill()
			kev := obs.Ev(obs.StageKill, "SIGKILL delivered")
			kev.Proc, kev.Rank, kev.Rep, kev.Step = ev.proc, w.Rank, w.Rep, ev.msg.Step
			l.tr.Emit(kev)
		}
	case evDone:
		w, m := h.workers[ev.proc], ev.msg
		w.Result, w.Err = WorkerResult{Checksum: m.Checksum, Residual: m.Residual, Iterations: m.Iterations}, m.Err
		l.appDone(ev.proc)
	}
}

// probe is the liveness check: a worker whose control channel has been
// silent past HealthTimeout is hung, and is killed as failed.
func (h *procSeats) probe() {
	p, age := h.reg.stalest(func(p int) bool { return h.loop.live[p] > 0 })
	if p < 0 || age <= h.cfg.HealthTimeout {
		return
	}
	fmt.Fprintf(h.loop.sink, "[coordinator] worker %d silent for %v; killing\n", p, age.Round(time.Second))
	mHealthKills.Inc()
	w := h.workers[p]
	kev := obs.Ev(obs.StageKill,
		fmt.Sprintf("liveness probe: control channel silent for %v", age.Round(time.Second)))
	kev.Proc, kev.Rank, kev.Rep = p, w.Rank, w.Rep
	h.loop.tr.Emit(kev)
	_ = w.cmd.Process.Kill()
}

// spawnWorker execs one worker process with its seat encoded as the env
// contract and its output streamed line-by-line to the sink; its exit
// arrives on events.
func spawnWorker(cfg DistConfig, w WorkerConfig, sink io.Writer, events chan<- seatEvent) (*distWorker, error) {
	l, err := w.layout()
	if err != nil {
		return nil, err
	}
	rank, rep := l.RankOf(w.Proc), l.RepOf(w.Proc)
	cmd := exec.Command(cfg.WorkerCmd[0], cfg.WorkerCmd[1:]...)
	cmd.Env = append(append(os.Environ(), cfg.WorkerEnv...), w.environ()...)
	prefix := fmt.Sprintf("[r%d.%d] ", rank, rep)
	stdout := &lineWriter{w: sink, prefix: prefix}
	stderr := &lineWriter{w: sink, prefix: prefix}
	cmd.Stdout = stdout
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = cmd.Wait()
		// All pipe writes have completed once Wait returns; push out any
		// final unterminated line — often the most interesting bytes of a
		// SIGKILLed worker.
		stdout.flushRemainder()
		stderr.flushRemainder()
		// Any exit but a clean one or exhaustion is a process death: a
		// signal (SIGKILL reads -1), a setup failure, a lost coordinator.
		code := cmd.ProcessState.ExitCode()
		ex := code == workerExitExhausted
		events <- seatEvent{proc: int(w.Proc), out: procOutcome{crashed: code != 0 && !ex, exhausted: ex, rank: -1}}
	}()
	return &distWorker{DistProcReport: DistProcReport{Proc: w.Proc, Rank: rank, Rep: rep}, cmd: cmd}, nil
}

// syncWriter serializes concurrent writers onto one sink.
type syncWriter struct {
	mu sync.Mutex // sdr:lockrank sink
	w  io.Writer  // guarded by mu
}

func (sw *syncWriter) Write(p []byte) (int, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.w.Write(p)
}

// lineWriter prefixes every line of a worker's output stream, so the
// interleaved logs of r·n processes stay attributable.
type lineWriter struct {
	w      io.Writer
	prefix string
	buf    []byte
}

func (lw *lineWriter) Write(p []byte) (int, error) {
	lw.buf = append(lw.buf, p...)
	for {
		i := bytes.IndexByte(lw.buf, '\n')
		if i < 0 {
			break
		}
		fmt.Fprintf(lw.w, "%s%s\n", lw.prefix, lw.buf[:i])
		lw.buf = lw.buf[i+1:]
	}
	return len(p), nil
}

// flushRemainder emits a final unterminated line, if any. Only safe once
// no more Writes can occur (after cmd.Wait).
func (lw *lineWriter) flushRemainder() {
	if len(lw.buf) > 0 {
		fmt.Fprintf(lw.w, "%s%s\n", lw.prefix, lw.buf)
		lw.buf = nil
	}
}
