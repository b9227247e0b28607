// Command sdrun launches one workload under a chosen protocol — the
// simulation's mpirun. It prints per-replica results, traffic statistics,
// and optionally a native-run comparison and send-determinism verdicts.
//
//	sdrun -app cg -ranks 8                        # native baseline
//	sdrun -app cg -ranks 8 -protocol sdr          # dual replication
//	sdrun -app lu -protocol sdr -kill 1:1:3       # crash rank 1 replica 1 at step 3
//	sdrun -app hpccg -protocol sdr -r 3           # triple replication
//	sdrun -app mw -protocol sdr -trace            # master-worker + verdicts
//	sdrun -app is -protocol sdr -compare          # measure overhead vs native
//	sdrun -app cg -protocol sdr -unreplicated 1,3 # partial replication
//	sdrun -app cg -protocol sdr -r 3 -degrees 3,1,2,1  # per-rank degrees
//
// Crash injection (-kill rank:rep:step, one event per flag, repeatable)
// needs an application with step boundaries; apps without them (all except
// lu, is, ring) reject it. Each field is a non-negative decimal integer and
// nothing else, so a malformed value exits 2 before anything runs.
//
// With -distributed, the run leaves the single-process simulation: sdrun
// becomes a coordinator that spawns r·n real OS worker processes (this
// same binary, re-entered through a hidden worker mode selected by the
// SDR_DIST_* environment contract), hands out the rendezvous world through
// a registry, streams the workers' output, and realizes -kill events as
// real SIGKILLs. When every replica of a rank has been killed, the
// coordinator rolls the whole run back to the latest committed checkpoint
// wave and respawns the workers.
//
//	sdrun -distributed -app lu -ranks 4 -protocol sdr -kill 1:1:3
//	sdrun -distributed -app lu -protocol sdr -kill 1:0:2 -kill 1:1:2  # rollback
//
// With -recovery=log (requires -protocol sdr and a resumable app — ring),
// every degree-1 rank runs under sender-based message logging: killing it
// relaunches that rank ALONE from its own newest checkpoint while the
// survivors keep their state and re-send from their logs — restarts stays
// 0 and the results still match a fault-free run.
//
//	sdrun -app ring -protocol sdr -unreplicated 1 -recovery log -kill 1:0:7
//	sdrun -distributed -app ring -ranks 4 -protocol sdr -unreplicated 1,3 \
//	      -recovery log -kill 1:0:6 -compare
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// The app-selection side of the worker env contract (cluster.EnvApp,
// cluster.EnvScale) is declared in the cluster env table alongside the
// topology side, and read back through its typed accessors.

// appEntry describes one launchable workload.
type appEntry struct {
	steps     bool // supports -kill (has step boundaries)
	resumable bool // honors Env.Restored/RestoredStep (required by -recovery=log)
	build     func(scale int, env *cluster.Env) apps.Result
}

func registry() map[string]appEntry {
	return map[string]appEntry{
		"cg": {false, false, func(f int, env *cluster.Env) apps.Result {
			return apps.CG(env.World, apps.CGParams{N: 1024 * f, Iters: 12 * f, Work: 2000})
		}},
		"mg": {false, false, func(f int, env *cluster.Env) apps.Result {
			return apps.MG(env.World, apps.MGParams{M: 1024 * f, Levels: 4, Cycles: 3 * f, Work: 2000})
		}},
		"ft": {false, false, func(f int, env *cluster.Env) apps.Result {
			return apps.FT(env.World, apps.FTParams{BlockBytes: 4096 * f, Iters: 4 * f, Work: 8000})
		}},
		"bt": {false, false, func(f int, env *cluster.Env) apps.Result {
			p := apps.BTParams(f)
			p.Work = 2000
			return apps.ADI(env.World, p)
		}},
		"sp": {false, false, func(f int, env *cluster.Env) apps.Result {
			p := apps.SPParams(f)
			p.Work = 1500
			return apps.ADI(env.World, p)
		}},
		"lu": {true, false, func(f int, env *cluster.Env) apps.Result {
			return apps.LU(env.World, apps.LUParams{NX: 12, NZ: 6 * f, Iters: 4 * f, Work: 1500,
				OnIter: iterHook(env)})
		}},
		"is": {true, false, func(f int, env *cluster.Env) apps.Result {
			return apps.IS(env.World, apps.ISParams{KeysPerRank: 1024 * f, MaxKey: 1 << 14,
				Iters: 5 * f, Work: 5000, OnIter: iterHook(env)})
		}},
		"ep": {false, false, func(f int, env *cluster.Env) apps.Result {
			return apps.EP(env.World, apps.EPParams{Pairs: 20000 * f, Work: 20000})
		}},
		"hpccg": {false, false, func(f int, env *cluster.Env) apps.Result {
			return apps.HPCCG(env.World, apps.HPCCGParams{NX: 16, NY: 16, NZ: 8 * f, Iters: 6 * f, Work: 8000})
		}},
		"cm1": {false, false, func(f int, env *cluster.Env) apps.Result {
			return apps.CM1(env.World, apps.CM1Params{NX: 16, NY: 16, NZ: 8, Steps: 8 * f, Work: 4000, CFLEvery: 4})
		}},
		"mw": {false, false, func(f int, env *cluster.Env) apps.Result {
			return apps.MasterWorker(env.World, apps.MWParams{Tasks: 24 * f, Work: 500, Skew: 3})
		}},
		"ring": {true, true, func(f int, env *cluster.Env) apps.Result {
			return ringApp(env, 12*f, 2)
		}},
	}
}

// ringApp is the resumable reference workload for the recovery ladder: an
// n-rank ring accumulation that checkpoints real state every `every` steps
// and resumes from Env.Restored()/RestoredStep() — so a relaunched rank
// (or a rolled-back epoch) re-executes only from its wave, not from
// scratch. This is the app shape -recovery=log requires.
func ringApp(env *cluster.Env, steps, every int) apps.Result {
	c := env.World
	n := int(c.Size())
	me := int(c.Rank())
	start := 0
	var sum uint64
	if b := env.Restored(); len(b) == 8 && env.RestoredStep() >= 0 {
		start = env.RestoredStep()
		sum = binary.LittleEndian.Uint64(b)
	}
	sbuf := make([]byte, 8)
	rbuf := make([]byte, 8)
	for i := start; i < steps; i++ {
		env.Step(i, nil)
		binary.LittleEndian.PutUint64(sbuf, uint64(me*1000+i))
		req := c.Isend(mpi.Rank((me+1)%n), 0, sbuf)
		c.Recv(mpi.Rank((me-1+n)%n), 0, rbuf)
		mpi.Waitall(req)
		sum += binary.LittleEndian.Uint64(rbuf)
		if env.CanCheckpoint() && (i+1)%every == 0 {
			c.Barrier()
			state := make([]byte, 8)
			binary.LittleEndian.PutUint64(state, sum)
			if err := env.Checkpoint(i+1, state); err != nil {
				panic(err)
			}
		}
	}
	return apps.Result{Checksum: float64(sum), Iterations: steps}
}

// iterHook builds the per-iteration boundary hook: checkpoint the wave
// (when the run has a store — every -distributed run does), then expose
// the step to the crash schedule. The NAS proxies cannot resume mid-state,
// so the checkpoint is a step marker and a rollback re-executes the app
// from scratch; determinism makes the recomputed result identical.
func iterHook(env *cluster.Env) func(it int) {
	return func(it int) {
		if env.CanCheckpoint() {
			if err := env.Checkpoint(it, []byte{byte(it)}); err != nil {
				panic(err)
			}
		}
		env.Step(it, nil)
	}
}

func main() {
	if cluster.DistWorkerActive() {
		// Hidden worker mode: this process is one physical rank of a
		// -distributed run, selected purely by the env contract.
		os.Exit(workerMain())
	}

	var kills []cluster.FailureEvent
	app := flag.String("app", "cg", "workload: cg mg ft bt sp lu is ep hpccg cm1 mw ring")
	ranks := flag.Int("ranks", 4, "logical MPI ranks")
	protoName := flag.String("protocol", "native", "native | sdr | mirror | leader")
	r := flag.Int("r", 2, "replication degree (replicated protocols)")
	scale := flag.Int("scale", 1, "workload scale factor")
	traceSends := flag.Bool("trace", false, "record send sequences and print determinism verdicts")
	compare := flag.Bool("compare", false, "also run natively and report the overhead (with -distributed: verify results match the in-process native run)")
	timeout := flag.Duration("timeout", 2*time.Minute, "watchdog deadline")
	distributed := flag.Bool("distributed", false, "run as real OS processes under a coordinator (registry + SIGKILL fault injection + rollback respawn)")
	ckptDir := flag.String("ckpt", "", "shared checkpoint directory for -distributed (default: a fresh temp dir)")
	unreplicated := flag.String("unreplicated", "", "comma-separated logical ranks to run with a single replica (partial replication)")
	degreesFlag := flag.String("degrees", "", "comma-separated per-rank replication degrees, one per rank (overrides the uniform -r; each in [1,r])")
	recovery := flag.String("recovery", "rollback", "recovery mode above substitution: rollback (global) | log (sender-based message logging + localized replay for degree-1 ranks)")
	statsJSON := flag.String("stats-json", "", "with -distributed: write the machine-readable RunStats JSON (schema sdr.runstats/1) to this file")
	noRing := flag.Bool("no-ring", false, "with -distributed: disable the colocated shared-memory ring transport (all peers use TCP)")
	health := flag.Duration("health", 0, "with -distributed: kill a worker silent on the control plane past this deadline (0 = default; raise for heavily oversubscribed hosts)")
	flag.Func("kill", "inject a crash: rank:rep:step, three non-negative integers (repeatable; SIGKILL under -distributed)", func(v string) error {
		f, err := cluster.ParseFailureEvent(v)
		if err == nil {
			kills = append(kills, f)
		}
		return err
	})
	flag.Parse()

	unrep, err := parseIntList(*unreplicated)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdrun: -unreplicated: %v\n", err)
		os.Exit(2)
	}
	degrees, err := parseIntList(*degreesFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdrun: -degrees: %v\n", err)
		os.Exit(2)
	}

	entry, ok := registry()[*app]
	if !ok {
		fmt.Fprintf(os.Stderr, "sdrun: unknown app %q (have: %s)\n", *app, strings.Join(appNames(), " "))
		os.Exit(2)
	}
	if len(kills) > 0 && !entry.steps {
		fmt.Fprintf(os.Stderr, "sdrun: -kill needs an app with step boundaries (lu, is, ring)\n")
		os.Exit(2)
	}
	proto := cluster.Protocol(*protoName)
	switch proto {
	case cluster.Native, cluster.SDR, cluster.Mirror, cluster.Leader:
	default:
		fmt.Fprintf(os.Stderr, "sdrun: unknown protocol %q\n", *protoName)
		os.Exit(2)
	}
	mode := cluster.RecoveryMode(*recovery)
	switch mode {
	case cluster.RecoveryRollback, cluster.RecoveryLog:
	default:
		fmt.Fprintf(os.Stderr, "sdrun: unknown -recovery %q (want log or rollback)\n", *recovery)
		os.Exit(2)
	}
	if mode == cluster.RecoveryLog && !entry.resumable {
		fmt.Fprintf(os.Stderr, "sdrun: -recovery=log needs an app that resumes from its checkpoint (ring); %q re-executes from scratch\n", *app)
		os.Exit(2)
	}
	if mode == cluster.RecoveryLog && proto != cluster.SDR {
		fmt.Fprintf(os.Stderr, "sdrun: -recovery=log requires -protocol sdr\n")
		os.Exit(2)
	}

	if *distributed {
		if *traceSends {
			fmt.Fprintln(os.Stderr, "sdrun: -trace is not supported with -distributed")
			os.Exit(2)
		}
		os.Exit(runDistributed(distOpts{
			entry: entry, app: *app, ranks: *ranks, proto: proto, r: *r,
			scale: *scale, timeout: *timeout, ckptDir: *ckptDir,
			kills: kills, compare: *compare,
			unreplicated: unrep, degrees: degrees,
			recovery:  mode,
			statsJSON: *statsJSON, noRing: *noRing, health: *health,
		}))
	}
	if *statsJSON != "" {
		fmt.Fprintln(os.Stderr, "sdrun: -stats-json requires -distributed")
		os.Exit(2)
	}
	if *noRing {
		fmt.Fprintln(os.Stderr, "sdrun: -no-ring requires -distributed")
		os.Exit(2)
	}

	// The localized-replay rung needs a checkpoint store even in-process.
	inprocCkpt := *ckptDir
	if mode == cluster.RecoveryLog && inprocCkpt == "" {
		dir, err := os.MkdirTemp("", "sdrun-ckpt-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdrun:", err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
		inprocCkpt = dir
	}

	run := func(p cluster.Protocol, fails []cluster.FailureEvent, tr bool) *cluster.Report {
		cfg := cluster.Config{
			Ranks: *ranks, Protocol: p, Replication: *r, Timeout: *timeout,
			Failures: fails, TraceSends: tr, KeepEvents: 64,
		}
		if p != cluster.Native {
			cfg.UnreplicatedRanks = unrep
			cfg.Degrees = degrees
			cfg.RecoveryMode = mode
			cfg.CheckpointDir = inprocCkpt
		}
		return cluster.Run(cfg, func(env *cluster.Env) (any, error) {
			c := env.World
			// The leading barrier ran before any checkpoint: a resumed
			// process (rollback epoch or localized relaunch) must not
			// re-execute it, or its collective sequence would double-count
			// it and desynchronize from the survivors. The trailing
			// barrier is after every restore point and runs always.
			if env.RestoredStep() < 0 {
				c.Barrier()
			}
			start := time.Now()
			res := entry.build(*scale, env)
			c.Barrier()
			return timed{res, time.Since(start)}, nil
		})
	}

	rep := run(proto, kills, *traceSends)
	if err := rep.FirstError(); err != nil {
		fmt.Fprintf(os.Stderr, "sdrun: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("%s on %d ranks under %s (r=%d%s, %d processes)\n",
		*app, *ranks, proto, rep.Config.Replication, degreeSuffix(rep.Config), distinctProcs(rep))
	if proto != cluster.Native {
		fmt.Printf("recovery: %s%s\n", mode, logSuffix(mode, rep.Config.LoggedRanks()))
	}
	var wall time.Duration
	for _, p := range rep.Procs {
		if p.Crashed {
			fmt.Printf("  rank %2d rep %d: crashed (injected)\n", p.Rank, p.Rep)
			continue
		}
		tr := p.Result.(timed)
		if p.Rep == 0 && tr.d > wall {
			wall = tr.d
		}
		fmt.Printf("  rank %2d rep %d: %8.3fs checksum=%.6g iters=%d\n",
			p.Rank, p.Rep, tr.d.Seconds(), tr.r.Checksum, tr.r.Iterations)
	}
	fmt.Printf("wall (slowest world-0 rank): %v\n", wall.Round(time.Millisecond))
	fmt.Printf("traffic: %d app msgs, %d acks\n",
		rep.Stats.AppMsgs(), rep.Stats.AckMsgs())
	if rep.Replays > 0 {
		fmt.Printf("localized replays: %d (relaunched from wave %d; survivors kept their state)\n",
			rep.Replays, rep.ReplayWave)
	}
	if rep.Restarts > 0 {
		fmt.Printf("rollback restarts: %d (wave %d)\n", rep.Restarts, rep.RestartWave)
	}

	if *traceSends && proto != cluster.Native {
		fmt.Println("send-determinism verdicts:")
		for rank := 0; rank < *ranks; rank++ {
			var recs []*cluster.Recorder
			for _, p := range rep.Procs {
				if p.Rank == rank {
					if rc := rep.Recorders[p.Proc]; rc != nil {
						recs = append(recs, rc)
					}
				}
			}
			if err := cluster.CheckSendDeterminism(recs...); err != nil {
				fmt.Printf("  rank %d: VIOLATION — %v\n", rank, err)
			} else {
				fmt.Printf("  rank %d: ok (%d replicas compared)\n", rank, len(recs))
			}
		}
	}

	if *compare && proto != cluster.Native {
		nat := run(cluster.Native, nil, false)
		if err := nat.FirstError(); err != nil {
			fmt.Fprintf(os.Stderr, "sdrun: native comparison: %v\n", err)
			os.Exit(1)
		}
		var natWall time.Duration
		for _, p := range nat.Procs {
			if d := p.Result.(timed).d; d > natWall {
				natWall = d
			}
		}
		fmt.Printf("native wall: %v — overhead %.2f%%\n", natWall.Round(time.Millisecond),
			(wall.Seconds()-natWall.Seconds())/natWall.Seconds()*100)
	}
}

// timed pairs a workload result with its in-application wall time.
type timed struct {
	r apps.Result
	d time.Duration
}

// parseIntList parses a comma-separated integer list ("" → nil).
func parseIntList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad entry %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// distinctProcs counts the layout's physical slots in a report: recovered
// or relaunched replicas report alongside their crashed predecessor, so
// raw report entries over-count the hardware.
func distinctProcs(rep *cluster.Report) int {
	seen := map[[2]int]bool{}
	for _, p := range rep.Procs {
		seen[[2]int{p.Rank, p.Rep}] = true
	}
	return len(seen)
}

// logSuffix renders the per-rank logging set for the recovery header line.
func logSuffix(mode cluster.RecoveryMode, logged []int) string {
	if mode != cluster.RecoveryLog {
		return ""
	}
	if len(logged) == 0 {
		return " (no degree-1 ranks: logging idle)"
	}
	return fmt.Sprintf(" (sender-logged ranks %v)", logged)
}

// degreeSuffix renders the partial-replication shape of a run for the
// header line ("" when every rank runs the uniform degree).
func degreeSuffix(cfg cluster.Config) string {
	if len(cfg.Degrees) > 0 {
		return fmt.Sprintf(", degrees %v", cfg.Degrees)
	}
	if len(cfg.UnreplicatedRanks) > 0 {
		return fmt.Sprintf(", unreplicated %v", cfg.UnreplicatedRanks)
	}
	return ""
}

// workerMain is the hidden worker mode: build the workload named by the
// env contract and hand control to the cluster worker runtime.
func workerMain() int {
	cfg, err := cluster.WorkerConfigFromEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdrun worker:", err)
		return 2
	}
	appName := cluster.EnvString(cluster.EnvApp)
	entry, ok := registry()[appName]
	if !ok {
		fmt.Fprintf(os.Stderr, "sdrun worker: unknown app %q\n", appName)
		return 2
	}
	scale, err := cluster.EnvInt(cluster.EnvScale)
	if err != nil || scale <= 0 {
		scale = 1
	}
	return cluster.RunWorker(cfg, func(env *cluster.Env) (any, error) {
		c := env.World
		// Pre-restore collectives must not be re-executed on a resumed
		// process — see the in-process launcher's closure.
		if env.RestoredStep() < 0 {
			c.Barrier()
		}
		res := entry.build(scale, env)
		c.Barrier()
		return cluster.WorkerResult{
			Checksum:   res.Checksum,
			Residual:   res.Residual,
			Iterations: res.Iterations,
		}, nil
	})
}

// distOpts carries the coordinator-side options of a -distributed run.
type distOpts struct {
	entry        appEntry
	app          string
	ranks        int
	proto        cluster.Protocol
	r            int
	scale        int
	timeout      time.Duration
	ckptDir      string
	kills        []cluster.FailureEvent
	compare      bool
	unreplicated []int
	degrees      []int
	recovery     cluster.RecoveryMode
	statsJSON    string
	noRing       bool
	health       time.Duration
}

// runDistributed is the coordinator side of -distributed: configure the
// cluster launcher, print the final-epoch results, and (with -compare)
// verify them against an in-process native run. Returns the exit code.
func runDistributed(o distOpts) int {
	ckptDir := o.ckptDir
	if ckptDir == "" {
		dir, err := os.MkdirTemp("", "sdrun-ckpt-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdrun:", err)
			return 1
		}
		defer os.RemoveAll(dir)
		ckptDir = dir
	}

	cfg := cluster.Config{
		Ranks:             o.ranks,
		Replication:       o.r,
		Protocol:          o.proto,
		Failures:          o.kills,
		UnreplicatedRanks: o.unreplicated,
		Degrees:           o.degrees,
		CheckpointDir:     ckptDir,
		RecoveryMode:      o.recovery,
		Timeout:           o.timeout,
	}
	rep := cluster.RunDistributed(cluster.DistConfig{
		Config:        cfg,
		NoRing:        o.noRing,
		HealthTimeout: o.health,
		WorkerEnv: []string{
			cluster.EnvApp + "=" + o.app,
			fmt.Sprintf("%s=%d", cluster.EnvScale, o.scale),
		},
	})
	if err := rep.FirstError(); err != nil {
		fmt.Fprintf(os.Stderr, "sdrun: distributed: %v\n", err)
		return 1
	}

	fmt.Printf("%s on %d ranks under %s (r=%d, distributed: %d worker processes)\n",
		o.app, o.ranks, o.proto, rep.Replication, len(rep.Procs))
	if o.proto != cluster.Native {
		fmt.Printf("recovery: %s%s\n", o.recovery, logSuffix(o.recovery, cfg.LoggedRanks()))
	}
	for _, p := range rep.Procs {
		if p.Crashed {
			fmt.Printf("  rank %2d rep %d: killed (SIGKILL, injected)\n", p.Rank, p.Rep)
			continue
		}
		fmt.Printf("  rank %2d rep %d: checksum=%.6g iters=%d\n",
			p.Rank, p.Rep, p.Result.Checksum, p.Result.Iterations)
	}
	fmt.Printf("restarts: %d", rep.Restarts)
	if rep.Restarts > 0 {
		fmt.Printf(" (rolled back to wave %d)", rep.RestartWave)
	}
	fmt.Println()
	if rep.Replays > 0 {
		fmt.Printf("localized replays: %d (relaunched alone from wave %d; survivors kept their state)\n",
			rep.Replays, rep.ReplayWave)
	}
	fmt.Printf("elapsed: %v\n", rep.Elapsed.Round(time.Millisecond))
	// Snapshot the sdr_cluster_* series before the reference run below:
	// cluster.Run moves them too.
	rs := buildRunStats(o, rep)

	exit := 0
	if o.compare {
		// Reference: the in-process fault-free native run of the same
		// workload. Every surviving worker of every replica world must have
		// computed exactly its rank's native checksum.
		nat := cluster.Run(cluster.Config{
			Ranks: o.ranks, Protocol: cluster.Native, Timeout: o.timeout,
		}, func(env *cluster.Env) (any, error) {
			c := env.World
			c.Barrier()
			res := o.entry.build(o.scale, env)
			c.Barrier()
			return res, nil
		})
		if err := nat.FirstError(); err != nil {
			fmt.Fprintf(os.Stderr, "sdrun: native reference run: %v\n", err)
			return 1
		}
		mismatch := false
		compared := 0
		for _, p := range rep.Procs {
			if p.Crashed {
				continue
			}
			want := nat.ResultOf(p.Rank, 0).(apps.Result)
			if p.Result.Checksum != want.Checksum || p.Result.Iterations != want.Iterations {
				mismatch = true
				fmt.Printf("MISMATCH rank %d rep %d: distributed checksum=%.9g iters=%d, native checksum=%.9g iters=%d\n",
					p.Rank, p.Rep, p.Result.Checksum, p.Result.Iterations, want.Checksum, want.Iterations)
				continue
			}
			compared++
		}
		if mismatch {
			exit = 1
		} else {
			// Close the recovery-ladder chain: whatever the run survived
			// (substitution, localized replay, rollback), the results came
			// out identical — the trace now reads detect → recover → match.
			rep.Trace.Emit(obs.Ev(obs.StageMatch,
				fmt.Sprintf("%d surviving workers identical to the in-process native run", compared)))
			fmt.Printf("MATCH: %d surviving workers identical to the in-process native run\n", compared)
		}
	}

	if rep.Trace.Len() > 0 {
		fmt.Println("recovery trace:")
		rep.Trace.Render(os.Stdout)
	}
	rs.WriteBlock(os.Stdout)
	if o.statsJSON != "" {
		b, err := rs.JSON()
		if err == nil {
			err = os.WriteFile(o.statsJSON, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdrun: -stats-json: %v\n", err)
			return 1
		}
	}
	return exit
}

// buildRunStats folds a distributed report into the machine-readable
// RunStats document: the coordinator's own sdr_cluster_* series plus the
// end-of-run /metrics scrape of every surviving worker.
func buildRunStats(o distOpts, rep *cluster.DistReport) *obs.RunStats {
	rs := obs.NewRunStats()
	rs.Protocol = string(o.proto)
	rs.Ranks = o.ranks
	rs.Procs = len(rep.Procs)
	rs.Restarts = rep.Restarts
	rs.RestartWave = rep.RestartWave
	rs.Replays = rep.Replays
	rs.ReplayWave = rep.ReplayWave
	rs.ElapsedSec = rep.Elapsed.Seconds()
	rs.EpochsSec = rep.EpochsSec
	rs.Workers = rep.Workers
	coord := make(map[string]float64)
	for k, v := range obs.Default.Snapshot() {
		if strings.HasPrefix(k, "sdr_cluster_") {
			coord[k] = v
		}
	}
	rs.Coordinator = coord
	return rs
}

func appNames() []string {
	var out []string
	for name := range registry() {
		out = append(out, name)
	}
	return out
}
