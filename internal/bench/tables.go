package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/transport"
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
// paper's Tables 1 and 2 and the eager/rendezvous ablation.
type Row struct {
	Name        string
	Native      time.Duration
	Replicated  time.Duration
	OverheadPct float64
	NativeSum   float64 // checksums, for the transparency cross-check
	ReplSum     float64
}

// checksum is the workload as a timed body.
func (w Workload) checksum(c *mpi.Comm) float64 { return w.Run(c).Checksum }

// CompareTable runs every workload native and under proto, producing the
// paper-style rows.
func CompareTable(ws []Workload, proto cluster.Protocol, reps int) ([]Row, error) {
	var rows []Row
	for _, w := range ws {
		r, err := compare(w.Name, cluster.Config{Ranks: w.Ranks, Timeout: 5 * time.Minute}, proto, reps, w.checksum)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// RunEagerAblation ping-pongs rounds messages of size bytes through both
// wire protocols, by overriding the eager limit, native vs SDR (median of
// reps). It isolates where the replication cost lands on each path: on
// the eager path the sender retains a payload copy until the acks arrive;
// on the rendezvous path the sender's completion already waits for the
// receiver's CTS, so the ack adds less on top (§3.2/§3.3).
func RunEagerAblation(size, rounds, reps int) ([]Row, error) {
	// A coarse delay model (50 µs hops, IB-20G bandwidth) makes the
	// modelled wire time dominate goroutine-scheduling noise, so the
	// overheads reflect protocol hops and ack placement rather than
	// simulation-host contention.
	delay := &transport.DelayModel{Latency: 50 * time.Microsecond, BytesPerSec: 1.6e9}
	var rows []Row
	// An EagerLimit above size sends every message eagerly, 1 by rendezvous.
	limit := map[string]int{"eager": size * 2, "rendezvous": 1}
	for _, mode := range []string{"eager", "rendezvous"} {
		r, err := compare(mode, cluster.Config{Ranks: 2, EagerLimit: limit[mode], Timeout: 2 * time.Minute, Delay: delay},
			cluster.SDR, reps, pingPong(size, rounds))
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// compare times body natively and under proto as a two-point sweep of
// cfg: one row of the paper's tables.
func compare(name string, cfg cluster.Config, proto cluster.Protocol, reps int, body func(c *mpi.Comm) float64) (Row, error) {
	rpl := cfg
	cfg.Protocol, rpl.Protocol = cluster.Native, proto
	rows, err := sweep(name, reps, []point{{string(cluster.Native), cfg, body}, {string(proto), rpl, body}})
	if err != nil {
		return Row{}, err
	}
	nat, rp := rows[0], rows[1]
	return Row{Name: name, Native: nat.Elapsed, Replicated: rp.Elapsed, OverheadPct: overheadPct(rp.Elapsed, nat.Elapsed),
		NativeSum: nat.Checksum, ReplSum: rp.Checksum}, nil
}

// RenderRows prints rows in the layout of the paper's tables, at
// microsecond resolution.
func RenderRows(w io.Writer, title string, rows []Row) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-12s %14s %16s %14s\n", "", "Native (sec)", "Replicated (sec)", "Overhead (%)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %14.6f %16.6f %14.2f\n",
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
