// Command benchmark is the repository's yardstick: six closed-loop
// workloads, each run as set-up + one warm-up repetition + timed
// repetitions, each checked against a Native reference, reported as medians
// of twelve end-to-end metrics (untraced) or as a per-layer budget (traced). It
// drives the stack only through the layers' public constructors and reads
// only the counters they already export. See README.md.
//
//	go run ./benchmark -workload cg-inproc-8 -seed 3 -seconds 10 -trace 0
//	go run ./benchmark -seed 1                  # all six, result set in out/
//	go run ./benchmark -trace 1                 # all six, per-layer tables
//	go run ./benchmark -compare a.json b.json   # judge b against a
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// sizes are the iteration counts of one benchmark configuration. The
// shapes — rank counts, payload sizes, wires, fault counts — are fixed in
// workloads(); only these scale.
type sizes struct {
	pingpongTrips, pingpongWarm int
	streamTrips, streamWarm     int
	cgSolves, cgIters           int
	hpccgSolves, hpccgIters     int
	meshRanks, meshIters        int
	ladder                      ladderSizes
}

// fullSizes is what BENCHMARK.json's run_seconds was chosen for: a
// repetition takes 0.1 to 0.6 s on two cores (the ladder's three runs
// 2.4 s), so an 18-second run takes its medians over 7 to 130 repetitions.
var fullSizes = sizes{
	pingpongTrips: 20_000, pingpongWarm: 1_000,
	streamTrips: 1_000, streamWarm: 50,
	cgSolves: 12, cgIters: 50,
	hpccgSolves: 8, hpccgIters: 10,
	meshRanks: 128, meshIters: 50,
	ladder: ladderSizes{steps: 20_000, warmSteps: 500, every: 100, ckptBytes: 256 << 10, replays: 39, rollbacks: 19},
}

// workloads lists the six workloads at the given sizes. The names are
// fixed; later issues refer to them.
func workloads(sz sizes) []workload {
	rtt := []string{"rtt_p50_us", "rtt_p90_us", "native_rtt_p50_us"}
	return []workload{
		{"pingpong-64B", append(rtt, "native_wall_s"),
			preparePingpong(64, false, sz.pingpongTrips, sz.pingpongWarm)},
		{"stream-256K-tcp", append(rtt, "native_wall_s", "payload_MB_per_s"),
			preparePingpong(256<<10, true, sz.streamTrips, sz.streamWarm)},
		{"cg-inproc-8", []string{"native_wall_s"}, prepareProxy(false, sz.cgSolves, sz.cgIters)},
		{"hpccg-anysrc-tcp-8", []string{"native_wall_s"}, prepareProxy(true, sz.hpccgSolves, sz.hpccgIters)},
		{"wire-ring-128", nil, prepareMesh(sz.meshRanks, sz.meshIters)},
		{"recovery-ladder-4", []string{"native_wall_s", "faultfree_wall_s", "reexec_steps"}, prepareLadder(sz.ladder)},
	}
}

// meta describes the machine and build a result came from.
type meta struct {
	Seed       int64  `json:"seed"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

// resultSet is what one invocation writes to the out directory: one
// workload in a driver run, all six otherwise. -compare reads two of them.
type resultSet struct {
	Meta      meta               `json:"meta"`
	Workloads map[string]*result `json:"workloads"`
}

// commit is the VCS revision the binary was built from, when the build
// recorded one (a checkout that is not a repository records none).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: all six)")
	seed := fs.Int64("seed", 1, "seed for payload bytes and kill-step offsets")
	seconds := fs.Int("seconds", 18, "how long each workload measures")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and spans")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for result, span, checkpoint and ring files")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark contract (bounds for -compare)")
	compare := fs.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareSets(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(min(nproc, 4))

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	all := workloads(fullSizes)
	var todo []workload
	for _, w := range all {
		if *name == "" || w.name == *name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}

	set := resultSet{
		Meta: meta{Seed: *seed, Nproc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Commit: commit(), Seconds: *seconds, Trace: *trace != 0},
		Workloads: map[string]*result{},
	}
	fmt.Fprintf(stdout, "benchmark: seed=%d nproc=%d GOMAXPROCS=%d %s commit=%s seconds=%d trace=%d\n",
		set.Meta.Seed, set.Meta.Nproc, set.Meta.GOMAXPROCS, set.Meta.GoVersion, set.Meta.Commit, *seconds, *trace)

	opt := options{seed: *seed, seconds: float64(*seconds), trace: *trace != 0, outDir: *outDir, minReps: 5}
	ok := true
	for _, w := range todo {
		res, err := runWorkload(w, opt)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		set.Workloads[w.name] = res
		printResult(stdout, res)
		ok = ok && res.Correct
	}

	file := fmt.Sprintf("set-seed%d", *seed)
	if *name != "" {
		file = fmt.Sprintf("%s-seed%d", *name, *seed)
	}
	if opt.trace {
		file += "-trace"
	}
	path := filepath.Join(*outDir, file+".json")
	if err := writeJSON(path, set); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "result set written to %s\n", path)

	if err := printContractLine(stdout, set, opt.trace); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult prints one workload's table: end-to-end metrics of an
// untraced run, or the per-layer budget of a traced one.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "\n== %s  (reps=%d attempted=%d failed=%d)\n", res.Workload, res.Reps, res.Attempted, res.Failed)
	keys := make([]string, 0, len(res.Counts))
	for k := range res.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "   %s=%d", k, res.Counts[k])
	}
	fmt.Fprintln(w)
	row := func(name string, m metricValue) {
		fmt.Fprintf(w, "  %-32s %14.6g %-6s  [min %.6g  decile %.6g  max %.6g  n=%d]\n", name, m.Value, m.Unit, m.Min, m.Decile, m.Max, len(m.Samples))
	}
	if !res.Trace {
		for _, d := range endToEnd {
			if m, ok := res.EndToEnd[d.Name]; ok {
				row(d.Name, m)
			}
		}
	}
	for _, d := range perLayer {
		if m, ok := res.PerLayer[d.Name]; ok {
			row(d.Name, m)
		}
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  ERROR: %s\n", e)
	}
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// standIn is what the driver's line carries for an end-to-end metric the
// workload does not define. The driver wants every name on every workload,
// never 0 and no time that repeats exactly, so each stand-in is worked out
// from the cells the workload does define and moves with them. Stand-ins
// appear nowhere else: not in the tables, the result file or -compare.
func standIn(name string, e map[string]metricValue) float64 {
	wall := e["wall_s"].Value
	native, ok := e["native_wall_s"]
	if !ok {
		native.Value = wall // no replication: the run is its own reference
	}
	usPerMsg := 1e6 / e["msgs_per_s"].Value
	switch name {
	case "native_wall_s":
		return native.Value
	case "faultfree_wall_s":
		return wall // no kills: the run is fault-free
	case "payload_MB_per_s":
		return e["msgs_per_s"].Value / 1e6 // as if a message carried one byte
	case "rtt_p50_us", "rtt_p90_us":
		return usPerMsg
	case "native_rtt_p50_us":
		return usPerMsg * native.Value / wall
	case "reexec_steps":
		return 1
	}
	return 0
}

// printContractLine prints the one JSON object the driver reads: every
// end-to-end metric of an untraced run (stand-ins where the workload
// defines none), every per-layer metric of a traced one (0 where the
// workload has nothing to say). With one workload the names are bare; with
// several they are prefixed "workload/".
func printContractLine(w io.Writer, set resultSet, traced bool) error {
	line := contractLine{Correct: true, Metrics: map[string]contractMetric{}}
	for name, res := range set.Workloads {
		line.Correct = line.Correct && res.Correct
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		prefix := ""
		if len(set.Workloads) > 1 {
			prefix = name + "/"
		}
		if traced {
			for _, d := range perLayer {
				line.Metrics[prefix+d.Name] = contractMetric{Value: res.PerLayer[d.Name].Value, Unit: d.Unit}
			}
			continue
		}
		for _, d := range endToEnd {
			m, ok := res.EndToEnd[d.Name]
			if !ok {
				m.Value = standIn(d.Name, res.EndToEnd)
			}
			line.Metrics[prefix+d.Name] = contractMetric{Value: m.Value, Unit: d.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
