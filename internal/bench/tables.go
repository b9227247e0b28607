package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/mpi"
)

// Workload names a parameterized application run.
type Workload struct {
	Name  string
	Ranks int
	Run   func(c *mpi.Comm) apps.Result
}

// Scale tunes workload sizes: 1 is the test-friendly default; larger
// values approach the paper's class-D feel (at goroutine-simulation
// scale).
type Scale struct {
	// Ranks is the logical rank count (the paper used 256 on 64 nodes).
	Ranks int
	// Factor multiplies iteration counts / sizes.
	Factor int
}

// DefaultScale is sized so the full table reproduces in seconds.
func DefaultScale() Scale { return Scale{Ranks: 8, Factor: 1} }

// NASWorkloads returns the five Table 1 benchmarks at the given scale.
// Work values are simulated per-kernel compute times in microseconds,
// tuned so each benchmark's communication/compute ratio mirrors its NAS
// character (CG the most reduction-bound, BT the most compute-heavy).
func NASWorkloads(s Scale) []Workload {
	f := s.Factor
	return []Workload{
		{"BT", s.Ranks, func(c *mpi.Comm) apps.Result {
			p := apps.BTParams(f)
			p.Work = 2500
			return apps.ADI(c, p)
		}},
		{"CG", s.Ranks, func(c *mpi.Comm) apps.Result {
			return apps.CG(c, apps.CGParams{N: 4096 * f, Iters: 25 * f, Work: 6000})
		}},
		{"FT", s.Ranks, func(c *mpi.Comm) apps.Result {
			return apps.FT(c, apps.FTParams{BlockBytes: 16384 * f, Iters: 5 * f, Work: 30000})
		}},
		{"MG", s.Ranks, func(c *mpi.Comm) apps.Result {
			return apps.MG(c, apps.MGParams{M: 4096 * f, Levels: 4, Cycles: 4 * f, Work: 4000})
		}},
		{"SP", s.Ranks, func(c *mpi.Comm) apps.Result {
			p := apps.SPParams(f)
			p.Work = 2000
			return apps.ADI(c, p)
		}},
	}
}

// WildcardWorkloads returns the Table 2 applications (ANY_SOURCE halo
// exchanges).
func WildcardWorkloads(s Scale) []Workload {
	f := s.Factor
	return []Workload{
		{"HPCCG", s.Ranks, func(c *mpi.Comm) apps.Result {
			return apps.HPCCG(c, apps.HPCCGParams{NX: 32, NY: 32, NZ: 8 * f, Iters: 8 * f, Work: 40000})
		}},
		{"CM1", s.Ranks, func(c *mpi.Comm) apps.Result {
			return apps.CM1(c, apps.CM1Params{NX: 24, NY: 24, NZ: 12, Steps: 12 * f, Work: 10000, CFLEvery: 5})
		}},
	}
}

// Row is one table line: wall-clock native vs replicated, as in the
// paper's Tables 1 and 2.
type Row struct {
	Name        string
	Native      time.Duration
	Replicated  time.Duration
	OverheadPct float64
	NativeSum   float64 // checksums, for the transparency cross-check
	ReplSum     float64
}

// checksum is the workload as a timedRun body.
func (w Workload) checksum(c *mpi.Comm) float64 { return w.Run(c).Checksum }

// CompareTable runs every workload native and under proto, producing the
// paper-style rows.
func CompareTable(ws []Workload, proto cluster.Protocol, reps int) ([]Row, error) {
	var rows []Row
	for _, w := range ws {
		nat, natSum, _, err := timedRun(cluster.Config{Ranks: w.Ranks, Protocol: cluster.Native, Timeout: 5 * time.Minute}, reps, w.checksum)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", w.Name, cluster.Native, err)
		}
		rpl, rplSum, _, err := timedRun(cluster.Config{Ranks: w.Ranks, Protocol: proto, Timeout: 5 * time.Minute}, reps, w.checksum)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", w.Name, proto, err)
		}
		rows = append(rows, Row{
			Name:        w.Name,
			Native:      nat,
			Replicated:  rpl,
			OverheadPct: (rpl.Seconds() - nat.Seconds()) / nat.Seconds() * 100,
			NativeSum:   natSum,
			ReplSum:     rplSum,
		})
	}
	return rows, nil
}

// RenderRows prints rows in the layout of the paper's tables.
func RenderRows(w io.Writer, title string, rows []Row) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-8s %14s %16s %14s\n", "", "Native (sec)", "Replicated (sec)", "Overhead (%)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %14.3f %16.3f %14.2f\n",
			r.Name, r.Native.Seconds(), r.Replicated.Seconds(), r.OverheadPct)
	}
}

// VerifyRows checks the transparency invariant on every row: replicated
// checksums must equal native ones bit-for-bit.
func VerifyRows(rows []Row) error {
	for _, r := range rows {
		if r.NativeSum != r.ReplSum {
			return fmt.Errorf("bench: %s replicated checksum %v != native %v", r.Name, r.ReplSum, r.NativeSum)
		}
	}
	return nil
}
