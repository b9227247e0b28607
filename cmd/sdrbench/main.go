// Command sdrbench regenerates the paper's evaluation artifacts and runs
// its failure scenarios by id; -exp takes one id or a comma-separated list,
// and all runs every one, in this order:
//
//	sdrbench -exp fig2            # anonymous receptions: leader vs SDR
//	sdrbench -exp fig3            # crash + substitution scenario
//	sdrbench -exp fig4            # recovery scenario
//	sdrbench -exp rollback        # both replicas of a rank lost: rollback (§4.1)
//	sdrbench -exp partial         # unreplicated rank lost: no substitution, rollback (§5)
//	sdrbench -exp replay          # unreplicated rank lost under recovery=log: localized replay
//	sdrbench -exp fig7a,fig7b     # NetPipe latency / throughput (one sweep for both)
//	sdrbench -exp table1          # NAS benchmarks, native vs SDR-MPI
//	sdrbench -exp table1-ext      # extended NAS set (LU, IS, EP)
//	sdrbench -exp table2          # HPCCG & CM1 (ANY_SOURCE apps)
//	sdrbench -exp ablation-mirror # O(q·r) vs O(q·r²) message complexity
//	sdrbench -exp ablation-leader # wildcard cost: leader vs leaderless
//	sdrbench -exp ablation-degree # overhead vs replication degree (r=1,2,3)
//	sdrbench -exp ablation-eager  # ack cost on the eager vs rendezvous path
//	sdrbench -exp ablation-coalesce # discrete vs coalesced ack traffic
//	sdrbench -exp ablation-ckpt   # checkpoint interval vs rollback-restart cost
//	sdrbench -exp ablation-recovery # localized replay vs global rollback re-executed work
//	sdrbench -exp determinism     # send-determinism verdicts (§2.1 taxonomy)
//	sdrbench -exp ablation-partial # partial replication sweep (§5 outlook)
//	sdrbench -exp sdc             # redMPI-style corruption detection
//	sdrbench -exp all             # everything
//
// Each scenario (fig3, fig4, rollback, partial, replay) is followed by the
// recovery ladder's event chain, rendered from the live trace.
// -ranks and -scale grow the workloads toward the paper's class-D feel.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/obs"
)

type experiment struct {
	id  string
	run func() error
}

func main() {
	exp := flag.String("exp", "all", "experiment id, or a comma-separated list of them (see the package comment; all runs every one)")
	ranks := flag.Int("ranks", 8, "logical ranks for table experiments")
	scale := flag.Int("scale", 1, "workload scale factor")
	reps := flag.Int("reps", 3, "repetitions per measurement (median reported)")
	flag.Parse()
	os.Exit(runList(*exp, experiments(bench.Scale{Ranks: *ranks, Factor: *scale}, *reps), os.Stdout, os.Stderr))
}

// experiments is the table of every experiment at scale s with reps
// repetitions per table row. Its order is the order of -exp all.
func experiments(s bench.Scale, reps int) []experiment {
	// compare checks and prints a native-vs-SDR comparison in the layout of
	// the paper's tables.
	compare := func(title string, run func() ([]bench.Row, error)) func() error {
		return func() error {
			rs, err := run()
			if err == nil {
				err = bench.VerifyRows(rs)
			}
			if err != nil {
				return err
			}
			bench.RenderRows(os.Stdout, title, rs)
			return nil
		}
	}
	table := func(title string, ws []bench.Workload) func() error {
		return compare(fmt.Sprintf("%s (ranks=%d, scale=%d, replication=2)", title, s.Ranks, s.Factor),
			func() ([]bench.Row, error) { return bench.CompareTable(ws, cluster.SDR, reps) })
	}
	ablation := func(run func(bench.Scale) (bench.Sweep, error)) func() error {
		return func() error {
			sw, err := run(s)
			if err != nil {
				return err
			}
			bench.RenderSweep(os.Stdout, sw)
			return nil
		}
	}
	// A scenario narrates itself, then renders the recovery ladder's event
	// chain from the live trace, reset first so the chain is its own.
	scenario := func(run func(w io.Writer) error) func() error {
		return func() error {
			obs.DefaultTrace.Reset()
			if err := run(os.Stdout); err != nil {
				return err
			}
			if obs.DefaultTrace.Len() > 0 {
				fmt.Println("recovery ladder (rendered from the live event stream):")
				obs.DefaultTrace.Render(os.Stdout)
			}
			return nil
		}
	}
	// fig7a and fig7b plot one sweep; it runs once per invocation.
	var sweep *bench.NetpipeComparison
	netpipe := func(render func(nc *bench.NetpipeComparison, w io.Writer)) func() error {
		return func() error {
			if sweep == nil {
				nc, err := bench.RunNetpipe(bench.NetpipeSizes())
				if err != nil {
					return err
				}
				sweep = nc
			}
			render(sweep, os.Stdout)
			return nil
		}
	}
	size, rounds := 16<<10, 400*s.Factor

	return []experiment{
		{"fig2", func() error {
			r, err := bench.RunFig2(200 * s.Factor)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
			return nil
		}},
		{"fig3", scenario(func(w io.Writer) error { return bench.RunFig3(w, 12, 5) })},
		{"fig4", scenario(func(w io.Writer) error { return bench.RunFig4(w, 12, 4, 8) })},
		{"rollback", scenario(func(w io.Writer) error { return bench.RunRollback(w, 16, 4, 5) })},
		{"partial", scenario(func(w io.Writer) error { return bench.RunPartial(w, 16, 4, 5) })},
		{"replay", scenario(func(w io.Writer) error { return bench.RunReplay(w, 16, 4, 5) })},
		{"fig7a", netpipe((*bench.NetpipeComparison).RenderFig7a)},
		{"fig7b", netpipe((*bench.NetpipeComparison).RenderFig7b)},
		{"table1", table("Table 1 — NAS proxies", bench.NASWorkloads(s))},
		{"table1-ext", table("Table 1 (extended) — LU/IS/EP proxies", bench.ExtendedNASWorkloads(s))},
		{"table2", table("Table 2 — ANY_SOURCE applications", bench.WildcardWorkloads(s))},
		{"ablation-mirror", ablation(bench.RunMirrorAblation)},
		{"ablation-leader", ablation(bench.RunLeaderAblation)},
		{"ablation-degree", ablation(bench.RunDegreeSweep)},
		{"ablation-eager", compare(fmt.Sprintf("Ablation — eager vs rendezvous wire protocol (%d B × %d round trips)", size, rounds),
			func() ([]bench.Row, error) { return bench.RunEagerAblation(size, rounds, reps) })},
		{"ablation-coalesce", ablation(bench.RunCoalesceAblation)},
		{"ablation-ckpt", func() error {
			rows, err := bench.RunCkptAblation(s)
			if err != nil {
				return err
			}
			bench.RenderCkpt(os.Stdout, s, rows)
			return nil
		}},
		{"ablation-recovery", func() error {
			rows, err := bench.RunRecoveryAblation(s)
			if err != nil {
				return err
			}
			bench.RenderRecovery(os.Stdout, s, rows)
			return nil
		}},
		{"determinism", func() error {
			rows, err := bench.RunDeterminismCheck(s)
			if err != nil {
				return err
			}
			bench.RenderDeterminism(os.Stdout, rows)
			return nil
		}},
		{"ablation-partial", ablation(bench.RunPartialSweep)},
		{"sdc", func() error {
			n, err := bench.RunSDCDemo()
			if err != nil {
				return err
			}
			fmt.Printf("SDC demo — injected 1 payload corruption, detected %d hash mismatch(es)\n", n)
			if n == 0 {
				return fmt.Errorf("corruption went undetected")
			}
			return nil
		}},
	}
}

// runList runs the experiments a comma-separated list of ids names, in
// list order, and returns the exit status. It resolves the whole list
// before running anything, so an unknown id anywhere in it costs no
// experiment time.
func runList(list string, exps []experiment, stdout, stderr io.Writer) int {
	var chosen []experiment
	for _, id := range strings.Split(list, ",") {
		if id == "all" {
			chosen = append(chosen, exps...)
			continue
		}
		found := false
		for _, e := range exps {
			if e.id == id {
				chosen = append(chosen, e)
				found = true
			}
		}
		if !found {
			fmt.Fprintf(stderr, "sdrbench: unknown experiment %q\n", id)
			return 1
		}
	}
	for _, e := range chosen {
		if err := e.run(); err != nil {
			fmt.Fprintf(stderr, "sdrbench %s: %v\n", e.id, err)
			return 1
		}
		fmt.Fprintln(stdout)
	}
	return 0
}
