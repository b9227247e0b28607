// Command sdrbench regenerates the paper's evaluation artifacts by id:
//
//	sdrbench -exp table1          # NAS benchmarks, native vs SDR-MPI
//	sdrbench -exp table2          # HPCCG & CM1 (ANY_SOURCE apps)
//	sdrbench -exp fig2            # anonymous receptions: leader vs SDR
//	sdrbench -exp fig3            # crash + substitution scenario
//	sdrbench -exp fig4            # recovery scenario
//	sdrbench -exp fig7a|fig7b     # NetPipe latency / throughput sweeps
//	sdrbench -exp ablation-mirror # O(q·r) vs O(q·r²) message complexity
//	sdrbench -exp ablation-leader # wildcard cost: leader vs leaderless
//	sdrbench -exp ablation-degree # overhead vs replication degree (r=1,2,3)
//	sdrbench -exp ablation-eager  # ack cost on the eager vs rendezvous path
//	sdrbench -exp ablation-coalesce # discrete vs coalesced ack traffic
//	sdrbench -exp ablation-ckpt   # checkpoint interval vs rollback-restart cost
//	sdrbench -exp ablation-recovery # localized replay vs global rollback re-executed work
//	sdrbench -exp table1-ext      # extended NAS set (LU, IS, EP)
//	sdrbench -exp determinism     # send-determinism verdicts (§2.1 taxonomy)
//	sdrbench -exp partial         # partial replication sweep (§5 outlook)
//	sdrbench -exp sdc             # redMPI-style corruption detection
//	sdrbench -exp all             # everything
//
// -ranks and -scale grow the workloads toward the paper's class-D feel.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/cluster"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (table1, table1-ext, table2, fig2, fig3, fig4, fig7a, fig7b, ablation-mirror, ablation-leader, ablation-degree, ablation-eager, ablation-coalesce, ablation-ckpt, ablation-recovery, determinism, partial, sdc, all)")
	ranks := flag.Int("ranks", 8, "logical ranks for table experiments")
	scale := flag.Int("scale", 1, "workload scale factor")
	reps := flag.Int("reps", 3, "repetitions per measurement (median reported)")
	flag.Parse()

	s := bench.Scale{Ranks: *ranks, Factor: *scale}
	run := func(id string) error {
		switch id {
		case "table1":
			rows, err := bench.CompareTable(bench.NASWorkloads(s), cluster.SDR, *reps)
			if err != nil {
				return err
			}
			if err := bench.VerifyRows(rows); err != nil {
				return err
			}
			bench.RenderRows(os.Stdout, fmt.Sprintf(
				"Table 1 — NAS proxies (ranks=%d, scale=%d, replication=2)", *ranks, *scale), rows)
		case "table2":
			rows, err := bench.CompareTable(bench.WildcardWorkloads(s), cluster.SDR, *reps)
			if err != nil {
				return err
			}
			if err := bench.VerifyRows(rows); err != nil {
				return err
			}
			bench.RenderRows(os.Stdout, fmt.Sprintf(
				"Table 2 — ANY_SOURCE applications (ranks=%d, scale=%d, replication=2)", *ranks, *scale), rows)
		case "fig2":
			r, err := bench.RunFig2(200 * *scale)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
		case "fig3":
			return bench.RunFig3(os.Stdout, 12, 5)
		case "fig4":
			return bench.RunFig4(os.Stdout, 12, 4, 8)
		case "fig7a":
			nc, err := bench.RunNetpipe(bench.NetpipeSizes())
			if err != nil {
				return err
			}
			nc.RenderFig7a(os.Stdout)
		case "fig7b":
			nc, err := bench.RunNetpipe(bench.NetpipeSizes())
			if err != nil {
				return err
			}
			nc.RenderFig7b(os.Stdout)
		case "table1-ext":
			rows, err := bench.CompareTable(bench.ExtendedNASWorkloads(s), cluster.SDR, *reps)
			if err != nil {
				return err
			}
			if err := bench.VerifyRows(rows); err != nil {
				return err
			}
			bench.RenderRows(os.Stdout, fmt.Sprintf(
				"Table 1 (extended) — LU/IS/EP proxies (ranks=%d, scale=%d, replication=2)", *ranks, *scale), rows)
		case "ablation-eager":
			rows, err := bench.RunEagerAblation(16<<10, 400**scale, *reps)
			if err != nil {
				return err
			}
			bench.RenderEager(os.Stdout, 16<<10, 400**scale, rows)
		case "ablation-coalesce":
			rows, err := bench.RunCoalesceAblation(s)
			if err != nil {
				return err
			}
			bench.RenderCoalesce(os.Stdout, rows)
		case "ablation-ckpt":
			rows, err := bench.RunCkptAblation(s)
			if err != nil {
				return err
			}
			bench.RenderCkpt(os.Stdout, s, rows)
		case "ablation-recovery":
			rows, err := bench.RunRecoveryAblation(s)
			if err != nil {
				return err
			}
			bench.RenderRecovery(os.Stdout, s, rows)
		case "ablation-degree":
			rows, err := bench.RunDegreeSweep(s)
			if err != nil {
				return err
			}
			bench.RenderDegrees(os.Stdout, rows)
		case "determinism":
			rows, err := bench.RunDeterminismCheck(s)
			if err != nil {
				return err
			}
			bench.RenderDeterminism(os.Stdout, rows)
		case "ablation-mirror":
			rows, err := bench.RunMirrorAblation(s)
			if err != nil {
				return err
			}
			bench.RenderAblation(os.Stdout, "Ablation — parallel (SDR) vs mirror message complexity (CG proxy)", rows)
		case "ablation-leader":
			rows, err := bench.RunLeaderAblation(s)
			if err != nil {
				return err
			}
			bench.RenderAblation(os.Stdout, "Ablation — leader vs leaderless ANY_SOURCE (HPCCG proxy)", rows)
		case "partial":
			rows, err := bench.RunPartialSweep(s)
			if err != nil {
				return err
			}
			bench.RenderPartial(os.Stdout, rows)
		case "sdc":
			n, err := bench.RunSDCDemo()
			if err != nil {
				return err
			}
			fmt.Printf("SDC demo — injected 1 payload corruption, detected %d hash mismatch(es)\n", n)
			if n == 0 {
				return fmt.Errorf("corruption went undetected")
			}
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
		return nil
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"fig2", "fig3", "fig4", "fig7a", "fig7b", "table1", "table1-ext", "table2",
			"ablation-mirror", "ablation-leader", "ablation-degree", "ablation-eager",
			"ablation-coalesce", "ablation-ckpt", "ablation-recovery", "determinism", "partial", "sdc"}
	}
	for _, id := range ids {
		if err := run(id); err != nil {
			fmt.Fprintf(os.Stderr, "sdrbench %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
