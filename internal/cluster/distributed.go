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
// the layout's degree vector spelled out, and the scheduled kills that
// have not fired yet.
func (c DistConfig) seat(l core.Layout, proc int, fired []bool, seed epochSeed) WorkerConfig {
	rank, rep := l.RankOf(transport.ProcID(proc)), l.RepOf(transport.ProcID(proc))
	w := WorkerConfig{Proc: transport.ProcID(proc), RestartWave: seed.wave, Epoch: seed.epoch, ReplayWave: -1}
	w.Ranks, w.Replication, w.Degrees = c.Ranks, l.R, l.DegreeVector()
	w.Protocol, w.CheckpointDir, w.RecoveryMode = c.Protocol, c.CheckpointDir, c.RecoveryMode
	for i, f := range c.Failures {
		if !fired[i] && f.Rank == rank && f.Rep == rep {
			w.KillSteps = append(w.KillSteps, f.AtStep)
		}
	}
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

// FirstError returns the first failure of the run, if any.
func (r *DistReport) FirstError() error {
	if r.TimedOut {
		return fmt.Errorf("cluster: distributed run timed out")
	}
	if r.ExhaustErr != nil {
		return r.ExhaustErr
	}
	for _, p := range r.Procs {
		if p.Err != "" {
			return fmt.Errorf("worker %d (rank %d rep %d): %s", p.Proc, p.Rank, p.Rep, p.Err)
		}
	}
	return nil
}

// RunDistributed executes the application as real OS processes — one per
// slot of the (possibly degree-aware) layout — and returns the aggregated
// report. It climbs the same recovery ladder as Run: the coordinator
// spawns workers, hands out the rendezvous world through the registry,
// streams their output, SIGKILLs scheduled victims at their reported step
// boundaries, broadcasts failure notifications, and — when a worker
// reports replication exhaustion — tears the epoch down and respawns
// everything from the latest committed checkpoint wave in the shared
// store.
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
	fired := make([]bool, len(cfg.Failures))
	err := ladder(cfg.Config, &rep.Tally, rep.Trace, false, func(l core.Layout, store *ckpt.Store, seed epochSeed) epochOutcome {
		if seed.epoch > 0 {
			mRestarts.Inc()
		}
		ep := runDistEpoch(cfg, l, store, fired, seed, rep.Trace)
		rep.Procs, rep.Workers = ep.procs, ep.workers
		rep.EpochsSec = append(rep.EpochsSec, ep.elapsed.Seconds())
		mEpochs.Inc()
		gEpochMillis.Set(ep.elapsed.Milliseconds())
		return ep.epochOutcome
	})
	if err != nil {
		rep.ExhaustErr = err
	}
	return rep
}

// distEpoch is one epoch's outcome: the ladder's part, and the workers'
// reports and end-of-run scrapes.
type distEpoch struct {
	epochOutcome
	procs   []DistProcReport
	workers []obs.WorkerStats
}

// distWorker is the coordinator's handle on one spawned worker process.
type distWorker struct {
	rank, rep int
	cmd       *exec.Cmd
}

// procExit reports a worker process's termination.
type procExit struct {
	proc int
	code int // ExitCode(); -1 when signaled (SIGKILL)
}

// runDistEpoch spawns one full set of workers and runs the epoch's event
// loop until completion, exhaustion, or the watchdog.
func runDistEpoch(cfg DistConfig, layout core.Layout, store *ckpt.Store, fired []bool, seed epochSeed, tr *obs.Trace) distEpoch {
	procs := layout.Procs()

	reg, err := newRegistry(procs, cfg.Ranks, store, cfg.RejoinTimeout)
	if err != nil {
		return distEpoch{epochOutcome: epochOutcome{err: err}}
	}
	defer reg.Close()

	sink := &syncWriter{w: cfg.LogSink}
	exitCh := make(chan procExit, 4*procs)
	workers := make([]*distWorker, procs)

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
	if limit, err := transport.EnsureFileLimit(fdBudget); err != nil {
		return distEpoch{epochOutcome: epochOutcome{err: fmt.Errorf("cluster: fd preflight for %d workers: %w", procs, err)}}
	} else {
		fmt.Fprintf(sink, "[coordinator] fd preflight: budget %d for %d workers, soft limit %d\n", fdBudget, procs, limit)
	}

	seat := func(p int) WorkerConfig {
		w := cfg.seat(layout, p, fired, seed)
		w.Registry, w.RingDir = reg.Addr(), ringDir
		return w
	}
	start := time.Now()
	for p := 0; p < procs; p++ {
		w, err := spawnWorker(cfg, seat(p), sink, exitCh)
		if err != nil {
			// Abort the partial epoch: kill what already started.
			for _, prev := range workers {
				if prev != nil {
					_ = prev.cmd.Process.Kill()
				}
			}
			return distEpoch{epochOutcome: epochOutcome{err: fmt.Errorf("cluster: spawn worker %d: %w", p, err), elapsed: time.Since(start)}}
		}
		workers[p] = w
	}

	var (
		dead       = make(map[int]bool)   // exited (any reason)
		scheduled  = make(map[int]bool)   // SIGKILL sent for a fired event
		done       = make(map[int]ctlMsg) // app results
		out        = distEpoch{epochOutcome: epochOutcome{rank: -1, replayWave: -1}}
		tearing    = false
		exits      = 0
		spawnTotal = procs // grows with localized relaunches
	)
	logRanks := cfg.logRanks(layout)
	maxReplays := len(cfg.Failures) + 1
	watchdog := time.NewTimer(cfg.timeout())
	defer watchdog.Stop()
	health := time.NewTicker(time.Second)
	defer health.Stop()

	teardown := func() {
		if tearing {
			return
		}
		tearing = true
		for p, w := range workers {
			if !dead[p] {
				_ = w.cmd.Process.Kill()
			}
		}
	}
	complete := func() bool {
		for p := 0; p < procs; p++ {
			if !dead[p] {
				if _, ok := done[p]; !ok {
					return false
				}
			}
		}
		return true
	}
	// finish scrapes every live worker's /metrics — they are draining,
	// their obs servers still up — then releases them with the shutdown
	// broadcast. The scrape must come first: after shutdown the workers
	// exit and the endpoints vanish.
	finish := func() {
		tearing = true
		for p := 0; p < procs; p++ {
			if dead[p] {
				continue
			}
			w := workers[p]
			ws := obs.WorkerStats{Proc: p, Rank: w.rank, Rep: w.rep, Addr: reg.obsAddr(p)}
			if ws.Addr == "" {
				ws.Err = "no obs address published"
			} else if m, err := obs.Scrape(ws.Addr, 2*time.Second); err != nil {
				ws.Err = err.Error()
			} else {
				ws.Scraped = true
				ws.Metrics = m
			}
			out.workers = append(out.workers, ws)
		}
		reg.broadcast(ctlMsg{Op: opShutdown}, -1)
	}

	// relaunch attempts the localized-replay rung for a dead logging-rank
	// worker: validate the rank's newest (checkpoint, replay-state) pair
	// end to end, then respawn exactly one OS process restored from it.
	// Any failure reports false and the caller escalates to the global
	// rollback rung — fail closed, never garbage.
	relaunch := func(proc int) bool {
		rank := layout.RankOf(transport.ProcID(proc))
		if out.replays >= maxReplays {
			fmt.Fprintf(sink, "[coordinator] worker %d (rank %d): replay budget (%d) spent; global rollback\n", proc, rank, maxReplays)
			return false
		}
		rs, err := loadReplay(store, rank)
		if err != nil {
			fmt.Fprintf(sink, "[coordinator] worker %d (rank %d): localized replay unavailable (%v); global rollback\n", proc, rank, err)
			return false
		}
		var deadList []int
		for p := range dead {
			if dead[p] && p != proc {
				deadList = append(deadList, p)
			}
		}
		reg.forget(proc)
		wc := seat(proc)
		wc.ReplayWave, wc.DeadProcs = rs.wave, deadList
		w, err := spawnWorker(cfg, wc, sink, exitCh)
		if err != nil {
			fmt.Fprintf(sink, "[coordinator] relaunch worker %d: %v; global rollback\n", proc, err)
			return false
		}
		workers[proc] = w
		dead[proc] = false
		spawnTotal++
		out.replays++
		out.replayWave = rs.wave
		mReplays.Inc()
		ev := obs.Ev(obs.StageReplay,
			fmt.Sprintf("relaunched alone from wave %d; survivors replay their logs", rs.wave))
		ev.Proc, ev.Rank, ev.Wave = proc, rank, rs.wave
		tr.Emit(ev)
		fmt.Fprintf(sink, "[coordinator] worker %d (rank %d) relaunched alone from wave %d; survivors replay their logs\n", proc, rank, rs.wave)
		return true
	}

	for exits < spawnTotal {
		select {
		case ev := <-reg.events:
			if tearing {
				continue
			}
			switch ev.kind {
			case evReady:
				// World table broadcast; workers are computing. Publish
				// where each worker's metrics live so a mid-run scraper
				// (CI smoke, an operator) can reach them.
				for p := 0; p < procs; p++ {
					if a := reg.obsAddr(p); a != "" && !dead[p] {
						w := workers[p]
						fmt.Fprintf(sink, "[coordinator] worker %d (r%d.%d) metrics at http://%s/metrics\n",
							p, w.rank, w.rep, a)
					}
				}
			case evKillMe:
				// The victim is parked at its step boundary: realize the
				// scheduled fail-stop with a real SIGKILL.
				w := workers[ev.proc]
				pev := obs.Ev(obs.StagePark, "worker parked at scheduled kill boundary")
				pev.Proc, pev.Rank, pev.Rep, pev.Step = ev.proc, w.rank, w.rep, ev.msg.Step
				tr.Emit(pev)
				for i, f := range cfg.Failures {
					if !fired[i] && f.Rank == w.rank && f.Rep == w.rep && f.AtStep == ev.msg.Step {
						fired[i] = true
						scheduled[ev.proc] = true
						_ = w.cmd.Process.Kill()
						kev := obs.Ev(obs.StageKill, "SIGKILL delivered")
						kev.Proc, kev.Rank, kev.Rep, kev.Step = ev.proc, w.rank, w.rep, ev.msg.Step
						tr.Emit(kev)
						break
					}
				}
			case evExhausted:
				out.exhausted = true
				teardown()
			case evDone:
				done[ev.proc] = ev.msg
				if complete() {
					finish() // workers exit on their own now
				}
			case evLost:
				// The process exit (right behind the EOF) carries the
				// classification; nothing to do here.
			}
		case ex := <-exitCh:
			exits++
			if dead[ex.proc] {
				continue
			}
			dead[ex.proc] = true
			if tearing {
				continue
			}
			if ex.code == workerExitExhausted {
				out.exhausted = true
				teardown()
				continue
			}
			if _, finished := done[ex.proc]; finished && ex.code == 0 {
				continue // clean exit after shutdown (rare ordering)
			}
			// A real process death — scheduled or not. Broadcast the
			// failure notification so the survivors' protocol layer can
			// substitute (or, for a logging-enabled rank, park for the
			// localized replay; or report exhaustion).
			reg.announceDead(ex.proc)
			wk := workers[ex.proc]
			dev := obs.Ev(obs.StageDetect, "worker process exited; failure broadcast to survivors")
			dev.Proc, dev.Rank, dev.Rep = ex.proc, wk.rank, wk.rep
			tr.Emit(dev)
			if rank := layout.RankOf(transport.ProcID(ex.proc)); logRanks != nil && logRanks[rank] {
				if !relaunch(ex.proc) {
					out.exhausted = true
					teardown()
				}
				continue
			}
			if complete() {
				finish()
			}
		case <-health.C:
			if tearing {
				continue
			}
			if p, age := reg.stalest(func(p int) bool { return !dead[p] }); p >= 0 && age > cfg.HealthTimeout {
				// Hung worker: the liveness probe treats it as failed.
				fmt.Fprintf(sink, "[coordinator] worker %d silent for %v; killing\n", p, age.Round(time.Second))
				mHealthKills.Inc()
				w := workers[p]
				kev := obs.Ev(obs.StageKill,
					fmt.Sprintf("liveness probe: control channel silent for %v", age.Round(time.Second)))
				kev.Proc, kev.Rank, kev.Rep = p, w.rank, w.rep
				tr.Emit(kev)
				_ = workers[p].cmd.Process.Kill()
			}
		case <-watchdog.C:
			out.timedOut = true
			teardown()
		}
	}

	out.elapsed = time.Since(start)
	out.procs = make([]DistProcReport, procs)
	for p := 0; p < procs; p++ {
		w := workers[p]
		pr := DistProcReport{Proc: transport.ProcID(p), Rank: w.rank, Rep: w.rep}
		if m, ok := done[p]; ok {
			pr.Result = WorkerResult{Checksum: m.Checksum, Residual: m.Residual, Iterations: m.Iterations}
			pr.Err = m.Err
		} else if scheduled[p] {
			pr.Crashed = true
		} else if !out.timedOut && !out.exhausted {
			pr.Err = "worker exited without a result"
		}
		out.procs[p] = pr
	}
	return out
}

// spawnWorker execs one worker process with its seat encoded as the env
// contract and its output streamed line-by-line to the sink.
func spawnWorker(cfg DistConfig, w WorkerConfig, sink io.Writer, exitCh chan<- procExit) (*distWorker, error) {
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
		code := -1
		if st := cmd.ProcessState; st != nil {
			code = st.ExitCode()
		}
		exitCh <- procExit{proc: int(w.Proc), code: code}
	}()
	return &distWorker{rank: rank, rep: rep, cmd: cmd}, nil
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
