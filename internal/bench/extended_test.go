package bench

import (
	"strings"
	"testing"
)

func TestExtendedNASTableShape(t *testing.T) {
	// A fast-scale run of the extended set: overheads must be finite and
	// the transparency invariant must hold.
	if ws := ExtendedNASWorkloads(Scale{Ranks: 4, Factor: 1}); len(ws) != 3 {
		t.Fatalf("expected 3 extended workloads, got %d", len(ws))
	}
	rows, err := CompareTable(quickExtended(), "sdr", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRows(rows); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Native <= 0 || r.Replicated <= 0 {
			t.Errorf("%s: non-positive durations %v / %v", r.Name, r.Native, r.Replicated)
		}
	}
	var sb strings.Builder
	RenderRows(&sb, "extended", rows)
	for _, name := range []string{"LU", "IS", "EP"} {
		if !strings.Contains(sb.String(), name) {
			t.Errorf("render missing %s:\n%s", name, sb.String())
		}
	}
}

func TestDegreeSweep(t *testing.T) {
	sw, err := RunDegreeSweep(Scale{Ranks: 4, Factor: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := sw.Rows
	if len(rows) != 3 {
		t.Fatalf("expected 3 degrees, got %d", len(rows))
	}
	if rows[0].Label != "1" || rows[1].Label != "2" || rows[2].Label != "3" {
		t.Fatalf("degrees = %v", rows)
	}
	if n := rows[0].Stats.AckMsgs(); n != 0 {
		t.Errorf("native run recorded %d acks", n)
	}
	// Each extra replica multiplies application messages (parallel
	// protocol: O(q·r)) and adds one more ack per message.
	if a1, a0 := rows[1].Stats.AppMsgs(), rows[0].Stats.AppMsgs(); a1 <= a0 {
		t.Errorf("r=2 app msgs %d not above native %d", a1, a0)
	}
	if k2, k1 := rows[2].Stats.AckMsgs(), rows[1].Stats.AckMsgs(); k2 <= k1 {
		t.Errorf("r=3 acks %d not above r=2 acks %d", k2, k1)
	}
	var sb strings.Builder
	RenderSweep(&sb, sw)
	if !strings.Contains(sb.String(), "replication degree") {
		t.Error("render missing title")
	}
}

func TestDeterminismVerdicts(t *testing.T) {
	rows, err := RunDeterminismCheck(Scale{Ranks: 4, Factor: 1})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]DeterminismRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	cg := byName["CG"]
	if !cg.SendDeterministic || !cg.ChecksumsAgree {
		t.Errorf("CG verdict: %+v", cg)
	}
	hp := byName["HPCCG (ANY_SOURCE)"]
	if !hp.SendDeterministic {
		t.Errorf("HPCCG flagged non-send-deterministic: %+v", hp)
	}
	mw := byName["Master-Worker"]
	if mw.SendDeterministic {
		t.Errorf("Master-Worker not flagged: %+v", mw)
	}
	if !mw.ChecksumsAgree {
		t.Errorf("Master-Worker checksums diverged (they must agree): %+v", mw)
	}
	if mw.Detail == "" {
		t.Error("Master-Worker verdict has no divergence detail")
	}
	var sb strings.Builder
	RenderDeterminism(&sb, rows)
	if !strings.Contains(sb.String(), "Master-Worker") || !strings.Contains(sb.String(), "NO") {
		t.Errorf("render:\n%s", sb.String())
	}
}

func TestEagerAblation(t *testing.T) {
	rows, err := RunEagerAblation(8<<10, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Name != "eager" || rows[1].Name != "rendezvous" {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.Native <= 0 || r.Replicated <= 0 {
			t.Errorf("%s: non-positive durations", r.Name)
		}
	}
	// The rendezvous path takes more wire hops, so its native time must
	// exceed the eager path's.
	if rows[1].Native <= rows[0].Native {
		t.Errorf("rendezvous native %v not above eager native %v", rows[1].Native, rows[0].Native)
	}
	var sb strings.Builder
	RenderRows(&sb, "eager vs rendezvous", rows)
	if !strings.Contains(sb.String(), "rendezvous") {
		t.Error("render missing mode")
	}
}

// quickExtended returns test-speed variants of the extended workloads.
func quickExtended() []Workload {
	return []Workload{
		{"LU", 4, ExtendedNASWorkloads(Scale{Ranks: 4, Factor: 1})[0].Run},
		{"IS", 4, ExtendedNASWorkloads(Scale{Ranks: 4, Factor: 1})[1].Run},
		{"EP", 4, ExtendedNASWorkloads(Scale{Ranks: 4, Factor: 1})[2].Run},
	}
}
