package bench

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// RunFig3 executes the Figure 3 scenario — the repeated send(p0)/send(p1)
// pattern with replica p¹₁ crashing mid-run — and writes a narrative of
// the outcome. Returns an error if any survivor misbehaves.
func RunFig3(w io.Writer, steps, failAt int) error {
	app := fig3App(steps)
	rep := cluster.Run(cluster.Config{
		Ranks: 2, Protocol: cluster.SDR, Timeout: time.Minute,
		Failures: []cluster.FailureEvent{{Rank: 1, Rep: 1, AtStep: failAt}},
	}, app)
	if err := rep.FirstError(); err != nil {
		return err
	}
	want := fig3Want(steps)
	fmt.Fprintf(w, "Figure 3 — crash of replica p1_1 at step %d of %d\n", failAt, steps)
	for _, p := range rep.Procs {
		if p.Crashed {
			fmt.Fprintf(w, "  rank %d replica %d: CRASHED (injected fail-stop)\n", p.Rank, p.Rep)
			continue
		}
		status := "OK"
		if p.Result != want {
			status = fmt.Sprintf("WRONG (%v, want %v)", p.Result, want)
		}
		fmt.Fprintf(w, "  rank %d replica %d: finished, result %v — %s\n", p.Rank, p.Rep, p.Result, status)
		if p.Result != want {
			return fmt.Errorf("fig3: survivor rank %d rep %d computed %v, want %v", p.Rank, p.Rep, p.Result, want)
		}
	}
	fmt.Fprintf(w, "  substitute p0_1 emitted rank 1's messages after the crash; acks=%d app msgs=%d\n",
		rep.Stats.AckMsgs(), rep.Stats.AppMsgs())
	return nil
}

// RunFig4 executes the Figure 4 scenario — crash then recovery of p¹₁ —
// and narrates it.
func RunFig4(w io.Writer, steps, failAt, recoverAt int) error {
	app := fig4App(steps)
	rep := cluster.Run(cluster.Config{
		Ranks: 2, Protocol: cluster.SDR, Timeout: time.Minute,
		Failures:   []cluster.FailureEvent{{Rank: 1, Rep: 1, AtStep: failAt}},
		Recoveries: []cluster.RecoveryEvent{{Rank: 1, Rep: 1, AtStep: recoverAt}},
	}, app)
	if err := rep.FirstError(); err != nil {
		return err
	}
	want := fig3Want(steps)
	fmt.Fprintf(w, "Figure 4 — crash of p1_1 at step %d, recovery at step %d of %d\n", failAt, recoverAt, steps)
	finished := 0
	for _, p := range rep.Procs {
		if p.Crashed {
			fmt.Fprintf(w, "  rank %d replica %d: crashed as scheduled\n", p.Rank, p.Rep)
			continue
		}
		finished++
		fmt.Fprintf(w, "  rank %d replica %d: finished with %v\n", p.Rank, p.Rep, p.Result)
		if p.Result != want {
			return fmt.Errorf("fig4: rank %d rep %d computed %v, want %v", p.Rank, p.Rep, p.Result, want)
		}
	}
	if finished != 4 {
		return fmt.Errorf("fig4: %d processes finished, want 4 (recovered replica included)", finished)
	}
	fmt.Fprintln(w, "  the forked replica resumed from the substitute's state and finished the run")
	return nil
}

// RunRollback executes the exhaustion + rollback scenario — both replicas
// of rank 1 die at the same step, the second rung of the recovery ladder —
// and narrates the teardown, the committed wave chosen, and the restarted
// run's results. Returns an error if the rollback run misbehaves.
func RunRollback(w io.Writer, steps, every, failAt int) error {
	fmt.Fprintf(w, "Exhaustion + rollback — BOTH replicas of rank 1 die at step %d of %d (checkpoint every %d)\n",
		failAt, steps, every)
	fmt.Fprintln(w, "  replica substitution impossible: rank 1 has no survivor — replication is exhausted")
	ref, rep, err := faultVsFree(cluster.Config{Ranks: 2, Protocol: cluster.SDR, Timeout: time.Minute}, steps, every,
		cluster.FailureEvent{Rank: 1, Rep: 0, AtStep: failAt}, cluster.FailureEvent{Rank: 1, Rep: 1, AtStep: failAt})
	if err != nil {
		return fmt.Errorf("rollback: %w", err)
	}
	if rep.Restarts == 0 {
		return fmt.Errorf("rollback: rank loss did not force a restart")
	}
	fmt.Fprintf(w, "  rollback: tore the run down, restarted %d time(s) from committed wave %d (%d steps re-executed)\n",
		rep.Restarts, rep.RestartWave, failAt-rep.RestartWave)
	if err := matchFaultFree(w, ref, rep); err != nil {
		return fmt.Errorf("rollback: %w", err)
	}
	fmt.Fprintln(w, "  results are identical to a fault-free run: the recovery ladder's second rung held")
	return nil
}

// RunPartial executes the partial-replication failure ladder (§5): rank 1
// runs a single replica under an otherwise dual-replicated layout, so the
// degree-aware layout spawns 3 processes, not 4. Killing that replica
// leaves nothing to substitute, and the run escalates directly to a
// rollback restart from the last coordinated checkpoint. Returns an error
// unless the final epoch has 3 processes, the run rolled back, and every
// process matches a fault-free run.
func RunPartial(w io.Writer, steps, every, failAt int) error {
	fmt.Fprintln(w, "Partial replication — rank 0 dual-replicated, rank 1 unreplicated: 3 processes, not 4")
	fmt.Fprintf(w, "  checkpoints every %d steps; rank 1's ONLY replica crashes at step %d of %d\n", every, failAt, steps)
	ref, rep, err := faultVsFree(cluster.Config{
		Ranks: 2, Protocol: cluster.SDR, UnreplicatedRanks: []int{1}, Timeout: time.Minute,
	}, steps, every, cluster.FailureEvent{Rank: 1, Rep: 0, AtStep: failAt})
	if err != nil {
		return fmt.Errorf("partial: %w", err)
	}
	if len(rep.Procs) != 3 {
		return fmt.Errorf("partial: %d processes in the final epoch, want 3", len(rep.Procs))
	}
	if rep.Restarts == 0 {
		return fmt.Errorf("partial: the unreplicated rank's death did not force a rollback restart")
	}
	fmt.Fprintf(w, "  no substitution rung: rolled back %d time(s) to committed wave %d and re-ran\n",
		rep.Restarts, rep.RestartWave)
	if err := matchFaultFree(w, ref, rep); err != nil {
		return fmt.Errorf("partial: %w", err)
	}
	fmt.Fprintln(w, "  the application survived the loss of its unreplicated rank")
	return nil
}

// RunReplay executes the recovery ladder's middle rung: the same layout
// and kill as RunPartial, but under RecoveryLog. Every sender copies its
// rank-1-bound payloads into a message log (truncated by rank 1's
// checkpoint acknowledgements); when rank 1's only replica dies, it alone
// is relaunched from its newest checkpoint and replay state, the survivors
// replay their logs, and nobody rolls back. Returns an error unless there
// was exactly one replay, no restart, and every survivor matches a
// fault-free run.
func RunReplay(w io.Writer, steps, every, failAt int) error {
	fmt.Fprintln(w, "Localized replay — rank 1 unreplicated under recovery=log: every sender logs its rank-1-bound payloads")
	fmt.Fprintf(w, "  checkpoints every %d steps persist rank 1's replay state; its ONLY replica crashes at step %d of %d\n",
		every, failAt, steps)
	ref, rep, err := faultVsFree(cluster.Config{
		Ranks: 2, Protocol: cluster.SDR, UnreplicatedRanks: []int{1}, RecoveryMode: cluster.RecoveryLog,
		Timeout: time.Minute,
	}, steps, every, cluster.FailureEvent{Rank: 1, Rep: 0, AtStep: failAt})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if rep.Restarts != 0 || rep.Replays != 1 {
		return fmt.Errorf("replay: %d restarts and %d localized replays, want 0 and 1", rep.Restarts, rep.Replays)
	}
	fmt.Fprintf(w, "  rank 1 relaunched ALONE from wave %d; survivors re-sent from their logs, 0 rollbacks\n", rep.ReplayWave)
	if err := matchFaultFree(w, ref, rep); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	// Close the traced chain: detect → replay → recovered → match.
	obs.DefaultTrace.Emit(obs.Ev(obs.StageMatch, "surviving processes identical to the fault-free run"))
	fmt.Fprintln(w, "  the application survived the loss of its unreplicated rank without rolling anyone back")
	return nil
}

// faultVsFree runs ckptRing under cfg twice, fault-free and then with the
// kills, and returns both reports.
func faultVsFree(cfg cluster.Config, steps, every int, kills ...cluster.FailureEvent) (ref, rep *cluster.Report, err error) {
	if ref, err = runRing(cfg, steps, every, nil); err != nil {
		return nil, nil, fmt.Errorf("fault-free reference: %w", err)
	}
	cfg.Failures = kills
	rep, err = runRing(cfg, steps, every, nil)
	return ref, rep, err
}

func fig3App(steps int) cluster.AppFunc {
	return func(env *cluster.Env) (any, error) {
		c := env.World
		buf := make([]byte, 8)
		sum := uint64(0)
		for i := 0; i < steps; i++ {
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
		}
		return sum, nil
	}
}

func fig4App(steps int) cluster.AppFunc {
	return func(env *cluster.Env) (any, error) {
		c := env.World
		var step int
		var sum uint64
		if b := env.Restored(); b != nil {
			step = int(binary.LittleEndian.Uint64(b))
			sum = binary.LittleEndian.Uint64(b[8:])
		}
		snap := func() []byte {
			b := make([]byte, 16)
			binary.LittleEndian.PutUint64(b, uint64(step))
			binary.LittleEndian.PutUint64(b[8:], sum)
			return b
		}
		buf := make([]byte, 8)
		for ; step < steps; step++ {
			env.Step(step, snap)
			if c.Rank() == 1 {
				binary.LittleEndian.PutUint64(buf, uint64(step))
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
			// A collective per step: the forked replica must resume the
			// world communicator's collective counter with the protocol's.
			c.Barrier()
		}
		return sum, nil
	}
}

func fig3Want(steps int) uint64 {
	w := uint64(0)
	for i := 0; i < steps; i++ {
		w += uint64(i) * 2
	}
	return w
}
