// Command faultdemo kills replicas mid-run and shows the application
// completing — the live version of the paper's Figures 3 and 4, plus the
// recovery ladder's second rung.
//
//	faultdemo              # crash + substitution (Figure 3)
//	faultdemo -recover     # crash + recovery of the replica (Figure 4)
//	faultdemo -exhaust     # crash of ALL replicas of a rank + rollback to
//	                       # the last coordinated checkpoint (§1, §4.1)
//	faultdemo -partial     # partial replication (§5): one rank runs a
//	                       # single replica — its death has no substitution
//	                       # rung and goes straight to rollback
//	faultdemo -replay      # same kill, but under -recovery=log: the
//	                       # unreplicated rank is relaunched ALONE from its
//	                       # own checkpoint, survivors re-send from their
//	                       # message logs, nobody rolls back
//	faultdemo -distributed # the -exhaust scenario with every rank a real
//	                       # OS process: SIGKILLs, registry rendezvous,
//	                       # cross-process rollback respawn
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/obs"
)

func main() {
	if cluster.DistWorkerActive() {
		// Hidden worker mode: this process is one rank of the
		// -distributed demo (same env contract as sdrun's workers).
		os.Exit(distWorkerMain())
	}

	rec := flag.Bool("recover", false, "also recover the crashed replica (§3.4)")
	exhaust := flag.Bool("exhaust", false, "kill every replica of a rank: replication is exhausted and the run rolls back to the last coordinated checkpoint")
	partial := flag.Bool("partial", false, "run one rank unreplicated (degree-aware layout) and kill it: no substitution rung, straight to rollback")
	replay := flag.Bool("replay", false, "kill the unreplicated rank under the log recovery mode: sender-based message logging relaunches it alone, no global rollback")
	distributed := flag.Bool("distributed", false, "run the exhaustion scenario as real OS processes: SIGKILL both replicas of a rank, roll back, respawn workers")
	steps := flag.Int("steps", 16, "application steps")
	failAt := flag.Int("fail-at", 5, "step at which the replica crashes")
	recoverAt := flag.Int("recover-at", 10, "first step at which the substitute may fork the replacement (it waits while a rendezvous message is buffered)")
	every := flag.Int("ckpt-every", 4, "checkpoint interval for -exhaust / -distributed")
	flag.Parse()

	// Each scenario narrates from the live recovery-ladder event stream
	// (the same spans the distributed coordinator traces): drop whatever a
	// previous import or init recorded so the render is this scenario's
	// chain alone.
	obs.DefaultTrace.Reset()

	var err error
	switch {
	case *distributed:
		failAt := *failAt
		if failAt <= *every {
			failAt = *every + 1 // ensure at least one committed wave exists
		}
		err = runDistDemo(os.Stdout, *steps, *every, failAt)
	case *replay:
		failAt := *failAt
		if failAt <= *every {
			failAt = *every + 1
		}
		err = runReplayDemo(os.Stdout, *steps, *every, failAt)
	case *partial:
		failAt := *failAt
		if failAt <= *every {
			failAt = *every + 1
		}
		err = runPartialDemo(os.Stdout, *steps, *every, failAt)
	case *exhaust:
		failAt := *failAt
		if failAt <= *every {
			failAt = *every + 1
		}
		err = bench.RunRollback(os.Stdout, *steps, *every, failAt)
	case *rec:
		err = bench.RunFig4(os.Stdout, *steps, *failAt, *recoverAt)
	default:
		err = bench.RunFig3(os.Stdout, *steps, *failAt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultdemo:", err)
		os.Exit(1)
	}
	// The narration above told the story; this is the evidence — the
	// recovery ladder's actual event chain, rendered from the same trace
	// the production coordinator emits (the -distributed scenario renders
	// its coordinator-side chain inside runDistDemo; its workers' events
	// arrive as TRACE lines in their log streams).
	if !*distributed && obs.DefaultTrace.Len() > 0 {
		fmt.Println("recovery ladder (rendered from the live event stream):")
		obs.DefaultTrace.Render(os.Stdout)
	}
	switch {
	case *distributed:
		fmt.Println("application survived the loss of an entire rank — across real OS processes")
	case *replay:
		fmt.Println("application survived the loss of its unreplicated rank without rolling anyone back")
	case *partial:
		fmt.Println("application survived the loss of its unreplicated rank")
	case *exhaust:
		fmt.Println("application survived the loss of an entire rank")
	default:
		fmt.Println("application survived the injected failure")
	}
}

// App-shape side of the worker env contract for the distributed demo.
const (
	envSteps = "FAULTDEMO_STEPS"
	envEvery = "FAULTDEMO_EVERY"
)

// demoApp is a ping-pong accumulator with coordinated checkpoints every
// `every` steps; on a rollback restart it resumes from the wave the
// launcher seeded (Env.Restored), exactly like the in-process -exhaust
// demo.
func demoApp(steps, every int) cluster.AppFunc {
	return func(env *cluster.Env) (any, error) {
		c := env.World
		start := 0
		var sum uint64
		if b := env.Restored(); b != nil && env.RestoredStep() >= 0 {
			start = env.RestoredStep()
			sum = binary.LittleEndian.Uint64(b)
			fmt.Printf("resuming from committed wave %d (sum=%d)\n", start, sum)
		}
		buf := make([]byte, 8)
		for i := start; i < steps; i++ {
			env.Step(i, nil)
			if c.Rank() == 1 {
				binary.LittleEndian.PutUint64(buf, uint64(i))
				c.Send(0, 0, buf)
				c.Recv(0, 1, buf)
				sum += binary.LittleEndian.Uint64(buf)
			} else {
				c.Recv(1, 0, buf)
				v := binary.LittleEndian.Uint64(buf) * 2
				binary.LittleEndian.PutUint64(buf, v)
				c.Send(1, 1, buf)
				sum += v
			}
			if (i+1)%every == 0 {
				c.Barrier()
				state := make([]byte, 8)
				binary.LittleEndian.PutUint64(state, sum)
				if err := env.Checkpoint(i+1, state); err != nil {
					return nil, err
				}
			}
		}
		return cluster.WorkerResult{Checksum: float64(sum), Iterations: steps}, nil
	}
}

func distWorkerMain() int {
	cfg, err := cluster.WorkerConfigFromEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultdemo worker:", err)
		return 2
	}
	steps, every := 16, 4
	fmt.Sscanf(os.Getenv(envSteps), "%d", &steps)
	fmt.Sscanf(os.Getenv(envEvery), "%d", &every)
	return cluster.RunWorker(cfg, demoApp(steps, every))
}

// runPartialDemo narrates the partial-replication failure ladder: rank 1
// runs a single replica under an otherwise dual-replicated layout (3
// processes, not 4 — the degree-aware layout spawns no phantoms). Killing
// that replica leaves nothing to substitute, so the run escalates
// directly to a rollback restart from the last coordinated checkpoint.
func runPartialDemo(w io.Writer, steps, every, failAt int) error {
	dir, err := os.MkdirTemp("", "faultdemo-ckpt-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fmt.Fprintf(w, "degree-aware layout: rank 0 dual-replicated, rank 1 unreplicated — 3 processes, not 4\n")
	fmt.Fprintf(w, "checkpoints every %d steps; rank 1's ONLY replica crashes at step %d\n", every, failAt)
	fmt.Fprintf(w, "the partial failure ladder: an unreplicated rank's death skips substitution entirely\n")
	rep := cluster.Run(cluster.Config{
		Ranks:             2,
		Protocol:          cluster.SDR,
		UnreplicatedRanks: []int{1},
		CheckpointDir:     dir,
		Failures:          []cluster.FailureEvent{{Rank: 1, Rep: 0, AtStep: failAt}},
		Timeout:           time.Minute,
	}, demoApp(steps, every))
	if err := rep.FirstError(); err != nil {
		return err
	}
	if len(rep.Procs) != 3 {
		return fmt.Errorf("expected 3 processes in the final epoch, saw %d", len(rep.Procs))
	}
	if rep.Restarts < 1 {
		return fmt.Errorf("expected a rollback restart after the unreplicated rank died")
	}
	fmt.Fprintf(w, "replication exhausted at rank 1 — rolled back to committed wave %d and re-ran\n", rep.RestartWave)
	for _, p := range rep.Procs {
		if wr, ok := p.Result.(cluster.WorkerResult); ok {
			fmt.Fprintf(w, "  rank %d rep %d: sum=%.0f\n", p.Rank, p.Rep, wr.Checksum)
		}
	}
	return nil
}

// runReplayDemo narrates the recovery ladder's middle rung: the same
// degree-aware layout and kill as -partial, but under RecoveryLog. Every
// sender copies its rank-1-bound payloads into a message log (truncated by
// rank 1's checkpoint acknowledgements); when rank 1's only replica dies,
// it alone is relaunched from its newest checkpoint + replay state, the
// survivors replay their logs, and nobody rolls back — then the final
// sums are checked against a fault-free run (MATCH).
func runReplayDemo(w io.Writer, steps, every, failAt int) error {
	run := func(fail bool) (*cluster.Report, error) {
		dir, err := os.MkdirTemp("", "faultdemo-ckpt-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg := cluster.Config{
			Ranks:             2,
			Protocol:          cluster.SDR,
			UnreplicatedRanks: []int{1},
			RecoveryMode:      cluster.RecoveryLog,
			CheckpointDir:     dir,
			Timeout:           time.Minute,
		}
		if fail {
			cfg.Failures = []cluster.FailureEvent{{Rank: 1, Rep: 0, AtStep: failAt}}
		}
		rep := cluster.Run(cfg, demoApp(steps, every))
		if err := rep.FirstError(); err != nil {
			return nil, err
		}
		return rep, nil
	}

	fmt.Fprintf(w, "degree-aware layout, recovery=log: rank 1 unreplicated, every sender logs its rank-1-bound payloads\n")
	fmt.Fprintf(w, "checkpoints every %d steps persist rank 1's replay state; rank 1's ONLY replica crashes at step %d\n", every, failAt)
	free, err := run(false)
	if err != nil {
		return fmt.Errorf("fault-free reference: %w", err)
	}
	rep, err := run(true)
	if err != nil {
		return err
	}
	if rep.Restarts != 0 {
		return fmt.Errorf("survivors rolled back (%d restarts) — the localized rung should have absorbed this", rep.Restarts)
	}
	if rep.Replays != 1 {
		return fmt.Errorf("expected exactly one localized replay, saw %d", rep.Replays)
	}
	fmt.Fprintf(w, "kill-unreplicated → localized replay: rank 1 relaunched ALONE from wave %d; survivors re-sent from their logs, 0 rollbacks\n", rep.ReplayWave)
	for _, p := range rep.Procs {
		if p.Crashed {
			fmt.Fprintf(w, "  rank %d rep %d: crashed (injected), relaunched below\n", p.Rank, p.Rep)
			continue
		}
		wr, ok := p.Result.(cluster.WorkerResult)
		if !ok {
			continue
		}
		want := free.ResultOf(p.Rank, p.Rep).(cluster.WorkerResult)
		verdict := "MATCH"
		if wr.Checksum != want.Checksum {
			verdict = fmt.Sprintf("MISMATCH (fault-free %.0f)", want.Checksum)
		}
		fmt.Fprintf(w, "  rank %d rep %d: sum=%.0f — %s\n", p.Rank, p.Rep, wr.Checksum, verdict)
		if wr.Checksum != want.Checksum {
			return fmt.Errorf("rank %d rep %d diverged from the fault-free run", p.Rank, p.Rep)
		}
	}
	// Close the traced chain: detect → replay → recovered → match.
	obs.DefaultTrace.Emit(obs.Ev(obs.StageMatch, "surviving processes identical to the fault-free run"))
	return nil
}

// runDistDemo narrates the distributed rung: 2 ranks × 2 replicas as real
// OS processes, both replicas of rank 1 SIGKILLed at failAt, rollback to
// the latest committed wave, respawn, identical final answer.
func runDistDemo(w io.Writer, steps, every, failAt int) error {
	dir, err := os.MkdirTemp("", "faultdemo-ckpt-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fmt.Fprintf(w, "launching 4 worker processes (2 ranks x 2 replicas); checkpoints every %d steps\n", every)
	fmt.Fprintf(w, "SIGKILL scheduled for BOTH replicas of rank 1 at step %d\n", failAt)
	rep := cluster.RunDistributed(cluster.DistConfig{
		Config: cluster.Config{
			Ranks:       2,
			Replication: 2,
			Protocol:    cluster.SDR,
			Failures: []cluster.FailureEvent{
				{Rank: 1, Rep: 0, AtStep: failAt},
				{Rank: 1, Rep: 1, AtStep: failAt},
			},
			CheckpointDir: dir,
			Timeout:       time.Minute,
		},
		WorkerEnv: []string{
			fmt.Sprintf("%s=%d", envSteps, steps),
			fmt.Sprintf("%s=%d", envEvery, every),
		},
		LogSink: w,
	})
	if err := rep.FirstError(); err != nil {
		return err
	}
	fmt.Fprintf(w, "rollback restarts: %d (resumed from wave %d)\n", rep.Restarts, rep.RestartWave)
	for _, p := range rep.Procs {
		fmt.Fprintf(w, "  rank %d rep %d: sum=%.0f\n", p.Rank, p.Rep, p.Result.Checksum)
	}
	if rep.Restarts < 1 {
		return fmt.Errorf("expected at least one rollback restart")
	}
	fmt.Fprintln(w, "recovery ladder (coordinator's event chain):")
	rep.Trace.Render(w)
	return nil
}
