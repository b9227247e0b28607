package bench

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/transport"
)

func TestNASWorkloadCatalog(t *testing.T) {
	s := DefaultScale()
	nas := NASWorkloads(s)
	wantNames := []string{"BT", "CG", "FT", "MG", "SP"}
	if len(nas) != len(wantNames) {
		t.Fatalf("%d NAS workloads, want %d", len(nas), len(wantNames))
	}
	for i, w := range nas {
		if w.Name != wantNames[i] {
			t.Errorf("workload %d = %s, want %s", i, w.Name, wantNames[i])
		}
		if w.Ranks != s.Ranks {
			t.Errorf("%s: ranks %d, want %d", w.Name, w.Ranks, s.Ranks)
		}
		if w.Run == nil {
			t.Errorf("%s: nil runner", w.Name)
		}
	}
	wild := WildcardWorkloads(s)
	if len(wild) != 2 || wild[0].Name != "HPCCG" || wild[1].Name != "CM1" {
		t.Fatalf("wildcard workloads: %+v", wild)
	}
}

func TestWorkloadCatalogRunnable(t *testing.T) {
	// Every catalogued workload must execute and self-verify at a small
	// rank count (the full-size runs belong to sdrbench, not the suite).
	s := Scale{Ranks: 2, Factor: 1}
	all := append(NASWorkloads(s), WildcardWorkloads(s)...)
	all = append(all, ExtendedNASWorkloads(s)...)
	for _, w := range all {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			rep := cluster.Run(cluster.Config{Ranks: 2, Protocol: cluster.Native},
				func(env *cluster.Env) (any, error) {
					return w.Run(env.World), nil
				})
			if err := rep.FirstError(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRenderSweep(t *testing.T) {
	var sdr, mirror transport.StatsSnapshot
	sdr.Msgs[transport.KindEager], sdr.Msgs[transport.KindAck] = 100, 100
	mirror.Msgs[transport.KindEager] = 200
	sw := Sweep{Title: "test title", Label: "protocol", Rows: []SweepRow{
		{Label: "sdr", Elapsed: 1e9, Stats: sdr},
		{Label: "mirror", Elapsed: 2e9, Stats: mirror},
	}}
	var sb strings.Builder
	RenderSweep(&sb, sw)
	out := sb.String()
	for _, want := range []string{"test title", "sdr", "mirror", "100", "200"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestPartialSweepSmall(t *testing.T) {
	sw, err := RunPartialSweep(Scale{Ranks: 4, Factor: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := sw.Rows
	if len(rows) == 0 {
		t.Fatal("empty sweep")
	}
	// The sweep must include the unreplicated and fully replicated ends,
	// with physical process counts growing with the protected fraction.
	first, last := rows[0], rows[len(rows)-1]
	if first.Label != "0/4" {
		t.Errorf("first row protects %s ranks, want 0/4", first.Label)
	}
	if last.Label != "4/4" {
		t.Errorf("last row protects %s ranks, want 4/4", last.Label)
	}
	if last.Procs <= first.Procs {
		t.Errorf("physical procs did not grow: %d → %d", first.Procs, last.Procs)
	}
	// The ablation's point: protocol traffic scales with the replicated
	// fraction. The unreplicated end pays no acks at all; the fully
	// replicated end pays more application messages and more acks than
	// any partial point.
	if n := first.Stats.AckMsgs(); n != 0 {
		t.Errorf("native end sent %d acks, want 0", n)
	}
	mid := rows[len(rows)/2]
	if !(first.Stats.AppMsgs() < mid.Stats.AppMsgs() && mid.Stats.AppMsgs() < last.Stats.AppMsgs()) {
		t.Errorf("app messages not increasing with replicated fraction: %d, %d, %d",
			first.Stats.AppMsgs(), mid.Stats.AppMsgs(), last.Stats.AppMsgs())
	}
	if mid.Stats.AckMsgs() == 0 || mid.Stats.AckMsgs() >= last.Stats.AckMsgs() {
		t.Errorf("ack messages not increasing with replicated fraction: %d → %d", mid.Stats.AckMsgs(), last.Stats.AckMsgs())
	}
	var sb strings.Builder
	RenderSweep(&sb, sw)
	if !strings.Contains(sb.String(), "partial") && !strings.Contains(sb.String(), "Partial") {
		t.Errorf("render:\n%s", sb.String())
	}
}

func TestWorkloadChecksumStability(t *testing.T) {
	// The same catalogued workload twice natively: bit-identical
	// checksums (what every overhead comparison implicitly assumes).
	w := ExtendedNASWorkloads(Scale{Ranks: 2, Factor: 1})[0] // LU
	var sums []float64
	for i := 0; i < 2; i++ {
		rep := cluster.Run(cluster.Config{Ranks: 2, Protocol: cluster.Native},
			func(env *cluster.Env) (any, error) {
				return w.Run(env.World).Checksum, nil
			})
		if err := rep.FirstError(); err != nil {
			t.Fatal(err)
		}
		sums = append(sums, rep.Procs[0].Result.(float64))
	}
	if sums[0] != sums[1] {
		t.Errorf("checksum drift: %v vs %v", sums[0], sums[1])
	}
}
