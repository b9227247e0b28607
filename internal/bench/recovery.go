package bench

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

// RecoveryRow is one point of the ablation-recovery experiment: the same
// unreplicated-rank kill handled by the two upper rungs of the recovery
// ladder. Under global rollback EVERY process re-executes from the last
// committed wave; under localized replay only the killed rank re-executes
// from its own wave while the survivors' sender logs bridge the gap — the
// re-executed-work column is the whole argument for the hybrid mode.
type RecoveryRow struct {
	Mode     cluster.RecoveryMode
	KillStep int
	Elapsed  time.Duration
	// ExecutedSteps counts every (process, step) execution across all
	// epochs; ReExecSteps is the excess over the fault-free ideal.
	ExecutedSteps int64
	ReExecSteps   int64
	Restarts      int
	Replays       int
	// RestartWave is the committed wave a rollback resumed from.
	RestartWave int
}

// RecoveryKillPoints returns the experiment's kill-step sweep for a run
// of `steps` steps: early, middle, and late in the execution, each one
// step past a checkpoint boundary so the kill discards real work.
func RecoveryKillPoints(steps int) []int {
	return []int{steps/4 + 1, steps/2 + 1, steps - 2}
}

// RunRecoveryAblation measures localized replay against global rollback
// (experiment ablation-recovery): a 4-rank ring with rank 1 unreplicated,
// rank 1 killed at each sweep point, once per recovery mode. Every run's
// results must equal the fault-free reference, localized replay must keep
// the survivors un-rolled-back (0 restarts), and — the paper's motivation
// for the hybrid — must re-execute strictly less work than the rollback
// run for the same kill point.
func RunRecoveryAblation(s Scale) ([]RecoveryRow, error) {
	const ranks = 4
	steps := 16 * s.Factor
	every := 4

	run := func(mode cluster.RecoveryMode, killAt int) (*cluster.Report, int64, error) {
		cfg := cluster.Config{
			Ranks: ranks, Protocol: cluster.SDR, Timeout: 2 * time.Minute,
			UnreplicatedRanks: []int{1},
			RecoveryMode:      mode,
		}
		if killAt >= 0 {
			cfg.Failures = []cluster.FailureEvent{{Rank: 1, Rep: 0, AtStep: killAt}}
		}
		var counter atomic.Int64
		rep, err := runRing(cfg, steps, every, &counter)
		if err != nil {
			return nil, 0, fmt.Errorf("ablation-recovery mode=%s kill=%d: %w", mode, killAt, err)
		}
		return rep, counter.Load(), nil
	}

	ref, ideal, err := run(cluster.RecoveryLog, -1)
	if err != nil {
		return nil, err
	}

	var rows []RecoveryRow
	for _, killAt := range RecoveryKillPoints(steps) {
		var reexec [2]int64
		for i, mode := range []cluster.RecoveryMode{cluster.RecoveryRollback, cluster.RecoveryLog} {
			rep, executed, err := run(mode, killAt)
			if err != nil {
				return nil, err
			}
			if err := matchFaultFree(io.Discard, ref, rep); err != nil {
				return nil, fmt.Errorf("ablation-recovery mode=%s kill=%d: %w", mode, killAt, err)
			}
			switch mode {
			case cluster.RecoveryRollback:
				if rep.Restarts == 0 {
					return nil, fmt.Errorf("ablation-recovery kill=%d: rollback mode did not restart", killAt)
				}
			case cluster.RecoveryLog:
				if rep.Restarts != 0 || rep.Replays == 0 {
					return nil, fmt.Errorf("ablation-recovery kill=%d: log mode restarts=%d replays=%d, want 0/>0",
						killAt, rep.Restarts, rep.Replays)
				}
			}
			reexec[i] = executed - ideal
			rows = append(rows, RecoveryRow{
				Mode: mode, KillStep: killAt, Elapsed: rep.Elapsed,
				ExecutedSteps: executed, ReExecSteps: executed - ideal,
				Restarts: rep.Restarts, Replays: rep.Replays, RestartWave: rep.RestartWave,
			})
		}
		if reexec[1] >= reexec[0] {
			return nil, fmt.Errorf("ablation-recovery kill=%d: localized replay re-executed %d steps, global rollback %d — replay must be strictly cheaper",
				killAt, reexec[1], reexec[0])
		}
	}
	return rows, nil
}

// RenderRecovery prints the ablation-recovery rows, paper-table style.
func RenderRecovery(w io.Writer, s Scale, rows []RecoveryRow) {
	steps := 16 * s.Factor
	fmt.Fprintf(w, "Ablation — localized replay vs. global rollback (ring, 4 ranks, rank 1 unreplicated, %d steps, ckpt every 4)\n", steps)
	fmt.Fprintf(w, "%-10s %10s %12s %12s %10s %10s\n", "mode", "kill step", "time (s)", "re-exec", "restarts", "replays")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10d %12.3f %12d %10d %10d\n",
			r.Mode, r.KillStep, r.Elapsed.Seconds(), r.ReExecSteps, r.Restarts, r.Replays)
	}
}
