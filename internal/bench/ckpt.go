package bench

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// CkptRow is one line of the ablation-ckpt table: how the coordinated
// checkpoint interval trades steady-state overhead against the re-executed
// work a full rollback restart pays (§4.1's infrequent-checkpointing
// argument — replication makes rank loss rare, so the interval can be
// long).
type CkptRow struct {
	// Interval is the number of application steps between coordinated
	// checkpoint waves; 0 marks the fault-free reference row.
	Interval int
	Elapsed  time.Duration
	// Restarts counts full rollback-restart cycles; RestartWave is the
	// committed wave the last rollback resumed from.
	Restarts    int
	RestartWave int
	// WastedSteps is the re-executed work: fail step minus restart wave.
	WastedSteps int
}

// ckptRing is the resumable checkpointing workload of the rollback,
// partial and replay scenarios and the ckpt and recovery ablations: an
// n-rank ring accumulation with a coordinated checkpoint every `every`
// steps, resuming from the launcher-seeded wave after a rollback restart
// or a localized replay. A non-nil counter ticks once per executed step of
// every process, across relaunches and rollback epochs alike.
//
// A barrier opens every step that follows a wave, so that a rank's last
// process cannot take that step before every writer has captured the
// wave. The writers (each rank's lowest live replica) share a world, a
// process hears only its own world's barrier, and a rank is lost only once
// its writer is. Checkpoint only captures; the wave is persisted and
// committed off the step, and the launcher makes up the difference: a
// scheduled kill first waits for its victim's wave, every process waits
// for its writer before its exit is reported, and the rollback reads the
// store only after every process of the lost epoch has exited. A kill
// scheduled for that step therefore always finds the wave to roll back
// to. The barrier opens the step rather than closing the wave so that a
// process resuming from the wave runs it again, as its first incarnation
// did after saving.
func ckptRing(steps, every int, counter *atomic.Int64) cluster.AppFunc {
	return func(env *cluster.Env) (any, error) {
		c := env.World
		n := c.Size()
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
			if every > 0 && i > 0 && i%every == 0 {
				c.Barrier()
			}
			env.Step(i, nil)
			if counter != nil {
				counter.Add(1)
			}
			binary.LittleEndian.PutUint64(sbuf, uint64(me*1000+i))
			req := c.Isend(mpi.Rank((me+1)%n), 0, sbuf)
			c.Recv(mpi.Rank((me-1+n)%n), 0, rbuf)
			mpi.Waitall(req)
			sum += binary.LittleEndian.Uint64(rbuf)
			if every > 0 && (i+1)%every == 0 {
				c.Barrier()
				state := make([]byte, 8)
				binary.LittleEndian.PutUint64(state, sum)
				if err := env.Checkpoint(i+1, state); err != nil {
					return nil, err
				}
			}
		}
		return sum, nil
	}
}

// runRing runs ckptRing under cfg in a fresh checkpoint directory.
func runRing(cfg cluster.Config, steps, every int, counter *atomic.Int64) (*cluster.Report, error) {
	dir, err := os.MkdirTemp("", "sdr-ring-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.CheckpointDir = dir
	rep := cluster.Run(cfg, ckptRing(steps, every, counter))
	return rep, rep.FirstError()
}

// matchFaultFree writes one line per process of rep and fails on the first
// survivor whose result differs from the fault-free run ref.
func matchFaultFree(w io.Writer, ref, rep *cluster.Report) error {
	for _, p := range rep.Procs {
		if p.Crashed {
			fmt.Fprintf(w, "  rank %d replica %d: CRASHED (injected fail-stop)\n", p.Rank, p.Rep)
			continue
		}
		if want := ref.ResultOf(p.Rank, p.Rep); p.Result != want {
			fmt.Fprintf(w, "  rank %d replica %d: finished, result %v — WRONG (fault-free %v)\n", p.Rank, p.Rep, p.Result, want)
			return fmt.Errorf("rank %d rep %d computed %v, fault-free %v", p.Rank, p.Rep, p.Result, want)
		}
		fmt.Fprintf(w, "  rank %d replica %d: finished, result %v — MATCH\n", p.Rank, p.Rep, p.Result)
	}
	return nil
}

// RunCkptAblation measures checkpoint interval vs. restart cost
// (experiment ablation-ckpt): both replicas of rank 1 die at 3/4 of the
// run, forcing a full rollback restart; shorter intervals waste fewer
// re-executed steps but checkpoint (and barrier) more often. Row 0 is the
// fault-free reference.
func RunCkptAblation(s Scale) ([]CkptRow, error) {
	ranks := s.Ranks
	if ranks < 2 {
		ranks = 2
	}
	steps := 16 * s.Factor
	failAt := steps * 3 / 4

	run := func(every int, fail bool) (*cluster.Report, error) {
		cfg := cluster.Config{Ranks: ranks, Protocol: cluster.SDR, Timeout: 2 * time.Minute}
		if fail {
			cfg.Failures = []cluster.FailureEvent{
				{Rank: 1, Rep: 0, AtStep: failAt},
				{Rank: 1, Rep: 1, AtStep: failAt},
			}
		}
		rep, err := runRing(cfg, steps, every, nil)
		if err != nil {
			return nil, fmt.Errorf("ablation-ckpt every=%d: %w", every, err)
		}
		return rep, nil
	}

	// Fault-free reference (checkpointing every 4 steps, no rollback).
	ref, err := run(4, false)
	if err != nil {
		return nil, err
	}
	rows := []CkptRow{{Interval: 0, Elapsed: ref.Elapsed, RestartWave: -1}}

	for _, every := range []int{1, 2, 4, 8} {
		rep, err := run(every, true)
		if err != nil {
			return nil, err
		}
		if rep.Restarts == 0 {
			return nil, fmt.Errorf("ablation-ckpt every=%d: rank loss did not force a rollback", every)
		}
		if err := matchFaultFree(io.Discard, ref, rep); err != nil {
			return nil, fmt.Errorf("ablation-ckpt every=%d: %w", every, err)
		}
		rows = append(rows, CkptRow{
			Interval:    every,
			Elapsed:     rep.Elapsed,
			Restarts:    rep.Restarts,
			RestartWave: rep.RestartWave,
			WastedSteps: failAt - rep.RestartWave,
		})
	}
	return rows, nil
}

// RenderCkpt prints the ablation-ckpt rows, paper-table style.
func RenderCkpt(w io.Writer, s Scale, rows []CkptRow) {
	steps := 16 * s.Factor
	fmt.Fprintf(w, "Ablation — checkpoint interval vs. restart cost (ring, ranks=%d, steps=%d, rank 1 lost at step %d)\n",
		s.Ranks, steps, steps*3/4)
	fmt.Fprintf(w, "%-10s %12s %10s %14s %14s\n", "interval", "time (s)", "restarts", "restart wave", "wasted steps")
	for _, r := range rows {
		label := fmt.Sprintf("%d", r.Interval)
		if r.Interval == 0 {
			label = "fault-free"
		}
		fmt.Fprintf(w, "%-10s %12.3f %10d %14d %14d\n",
			label, r.Elapsed.Seconds(), r.Restarts, r.RestartWave, r.WastedSteps)
	}
}
