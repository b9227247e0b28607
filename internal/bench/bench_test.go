package bench

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/transport"
)

func TestNetpipeSizesSweep(t *testing.T) {
	sizes := NetpipeSizes()
	if sizes[0] != 1 {
		t.Fatalf("first size %d", sizes[0])
	}
	if sizes[len(sizes)-1] < 4<<20 {
		t.Fatalf("sweep should reach megabyte sizes, got max %d", sizes[len(sizes)-1])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatal("sizes must increase")
		}
	}
}

func TestNetpipeSmallSweep(t *testing.T) {
	// A fast two-point sweep exercising the whole measurement path.
	nc, err := RunNetpipe([]int{1, 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(nc.Native) != 2 || len(nc.SDR) != 2 {
		t.Fatalf("points: %d/%d", len(nc.Native), len(nc.SDR))
	}
	for i := range nc.Native {
		if nc.Native[i].LatencyUS <= 0 || nc.SDR[i].LatencyUS <= 0 {
			t.Fatal("non-positive latency")
		}
		if nc.Native[i].ThroughputMbps <= 0 {
			t.Fatal("non-positive throughput")
		}
	}
	// SDR must cost at least as much as native for tiny messages (the
	// ack is extra work however it is scheduled).
	if nc.SDR[0].LatencyUS < nc.Native[0].LatencyUS*0.8 {
		t.Errorf("suspicious: SDR (%v us) much faster than native (%v us)",
			nc.SDR[0].LatencyUS, nc.Native[0].LatencyUS)
	}
	var sb strings.Builder
	nc.RenderFig7a(&sb)
	nc.RenderFig7b(&sb)
	out := sb.String()
	if !strings.Contains(out, "Figure 7a") || !strings.Contains(out, "Figure 7b") {
		t.Error("render output missing headers")
	}
}

func TestCompareTableSmall(t *testing.T) {
	ws := []Workload{{
		Name:  "mini",
		Ranks: 2,
		Run: func(c *mpi.Comm) apps.Result {
			return apps.CG(c, apps.CGParams{N: 64, Iters: 4, Work: 100})
		},
	}}
	rows, err := CompareTable(ws, cluster.SDR, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Name != "mini" {
		t.Fatalf("rows: %+v", rows)
	}
	if rows[0].Native <= 0 || rows[0].Replicated <= 0 {
		t.Fatal("non-positive durations")
	}
	if err := VerifyRows(rows); err != nil {
		t.Fatalf("transparency violated: %v", err)
	}
	var sb strings.Builder
	RenderRows(&sb, "T", rows)
	if !strings.Contains(sb.String(), "mini") {
		t.Error("render missing row")
	}
}

func TestVerifyRowsCatchesDivergence(t *testing.T) {
	rows := []Row{{Name: "x", NativeSum: 1, ReplSum: 2}}
	if err := VerifyRows(rows); err == nil {
		t.Fatal("expected divergence error")
	}
}

func TestFig2Comparison(t *testing.T) {
	r, err := RunFig2(40)
	if err != nil {
		t.Fatal(err)
	}
	if r.PerRecvUS[cluster.SDR] <= 0 || r.PerRecvUS[cluster.Leader] <= 0 {
		t.Fatal("non-positive timings")
	}
	// The leader must emit one decision per wildcard reception per
	// follower; SDR none.
	if r.CtlMsgs[cluster.SDR] != 0 {
		t.Errorf("SDR sent %d control messages, want 0", r.CtlMsgs[cluster.SDR])
	}
	if r.CtlMsgs[cluster.Leader] != 40 {
		t.Errorf("leader sent %d decisions, want 40", r.CtlMsgs[cluster.Leader])
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "Figure 2") {
		t.Error("render missing header")
	}
}

func TestMirrorAblationComplexity(t *testing.T) {
	sw, err := RunMirrorAblation(Scale{Ranks: 4, Factor: 1})
	if err != nil {
		t.Fatal(err)
	}
	byProto := map[cluster.Protocol]SweepRow{}
	for _, r := range sw.Rows {
		byProto[cluster.Protocol(r.Label)] = r
	}
	q := byProto[cluster.Native].Stats.AppMsgs()
	qs := byProto[cluster.SDR].Stats.AppMsgs()
	qm := byProto[cluster.Mirror].Stats.AppMsgs()
	// §2.4: parallel O(q·r), mirror O(q·r²), r = 2.
	if ratio := float64(qs) / float64(q); ratio < 1.9 || ratio > 2.1 {
		t.Errorf("parallel/native ratio %.2f, want ~2", ratio)
	}
	if ratio := float64(qm) / float64(q); ratio < 3.8 || ratio > 4.2 {
		t.Errorf("mirror/native ratio %.2f, want ~4", ratio)
	}
	if byProto[cluster.SDR].Stats.AckMsgs() == 0 || byProto[cluster.Mirror].Stats.AckMsgs() != 0 {
		t.Error("ack accounting wrong")
	}
}

func TestLeaderAblationDecisions(t *testing.T) {
	sw, err := RunLeaderAblation(Scale{Ranks: 4, Factor: 1})
	if err != nil {
		t.Fatal(err)
	}
	byProto := map[cluster.Protocol]SweepRow{}
	for _, r := range sw.Rows {
		byProto[cluster.Protocol(r.Label)] = r
	}
	if n := byProto[cluster.SDR].Stats.Msgs[transport.KindCtl]; n != 0 {
		t.Errorf("SDR control messages: %d", n)
	}
	if byProto[cluster.Leader].Stats.Msgs[transport.KindCtl] == 0 {
		t.Error("leader sent no decisions despite ANY_SOURCE receptions")
	}
}

func TestWorkloadSweepCatchesDivergence(t *testing.T) {
	// Every process of every run draws a fresh value, so rank 0 replica
	// 0's checksum differs between the two points.
	var draws atomic.Int64
	w := Workload{"planted", 2, func(c *mpi.Comm) apps.Result {
		return apps.Result{Checksum: float64(draws.Add(1))}
	}}
	_, err := workloadSweep("divergence check", 1, w, protocols(time.Minute, cluster.Native, cluster.SDR))
	if err == nil || !strings.Contains(err.Error(), "divergence check sdr: checksum") {
		t.Fatalf("err = %v, want the sdr point's checksum named", err)
	}
}

func TestScenarioRunners(t *testing.T) {
	var sb strings.Builder
	if err := RunFig3(&sb, 8, 3); err != nil {
		t.Fatal(err)
	}
	if err := RunFig4(&sb, 10, 3, 6); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Figure 3") || !strings.Contains(out, "Figure 4") {
		t.Error("scenario narration missing")
	}

	// Exact counts at 16 steps, a checkpoint every 4 and the kill at step
	// 5: partial ends with 3 processes after 1 restart from wave 4; replay
	// has 0 restarts, 1 replay from wave 4, 3 survivors and the crashed
	// replica.
	sb.Reset()
	if err := RunPartial(&sb, 16, 4, 5); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	if got := strings.Count(out, "— MATCH"); got != 3 {
		t.Errorf("partial: %d processes match the fault-free run, want 3:\n%s", got, out)
	}
	if !strings.Contains(out, "rolled back 1 time(s) to committed wave 4") {
		t.Errorf("partial: want one rollback restart from wave 4:\n%s", out)
	}

	sb.Reset()
	if err := RunReplay(&sb, 16, 4, 5); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	if got := strings.Count(out, "— MATCH"); got != 3 {
		t.Errorf("replay: %d survivors match the fault-free run, want 3:\n%s", got, out)
	}
	if got := strings.Count(out, "CRASHED"); got != 1 {
		t.Errorf("replay: %d crashed processes, want 1:\n%s", got, out)
	}
	if !strings.Contains(out, "relaunched ALONE from wave 4") || !strings.Contains(out, "0 rollbacks") {
		t.Errorf("replay: want one localized replay from wave 4 and no rollback:\n%s", out)
	}
}

func TestRollbackScenarioRunner(t *testing.T) {
	var sb strings.Builder
	if err := RunRollback(&sb, 12, 3, 8); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "replication is exhausted") || !strings.Contains(out, "committed wave") {
		t.Errorf("rollback narration missing pieces:\n%s", out)
	}
}

func TestCkptAblationRows(t *testing.T) {
	rows, err := RunCkptAblation(Scale{Ranks: 2, Factor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 || rows[0].Interval != 0 {
		t.Fatalf("rows = %+v", rows)
	}
	const failAt = 12 // 3/4 of 16 steps
	for _, r := range rows[1:] {
		if r.Restarts < 1 {
			t.Errorf("interval %d: no rollback recorded", r.Interval)
		}
		// Rank 1 cannot reach the kill before the last wave at or below it
		// commits, so the rollback resumes from exactly that wave.
		if want := failAt / r.Interval * r.Interval; r.RestartWave != want || r.WastedSteps != failAt-want {
			t.Errorf("interval %d: restart wave %d wasting %d steps, want wave %d wasting %d",
				r.Interval, r.RestartWave, r.WastedSteps, want, failAt-want)
		}
	}
	var sb strings.Builder
	RenderCkpt(&sb, Scale{Ranks: 2, Factor: 1}, rows)
	if !strings.Contains(sb.String(), "fault-free") {
		t.Error("render missing the reference row")
	}
}

func TestRecoveryAblationKillsAfterWaveCommits(t *testing.T) {
	// The first kill (step 5) is one step past wave 4. Rollback must find
	// that wave committed, whichever rank got there first: before every
	// step after a wave opened with a barrier, unreplicated rank 1 could
	// reach step 5 ahead of another rank's save and find no wave at all.
	rows, err := RunRecoveryAblation(Scale{Factor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		switch r.Mode {
		case cluster.RecoveryLog:
			if r.Restarts != 0 || r.Replays == 0 {
				t.Errorf("log mode kill %d: restarts %d replays %d, want 0 and some", r.KillStep, r.Restarts, r.Replays)
			}
		case cluster.RecoveryRollback:
			if r.KillStep == 5 && (r.Restarts != 1 || r.RestartWave != 4) {
				t.Errorf("rollback kill 5: restarts %d from wave %d, want 1 from wave 4", r.Restarts, r.RestartWave)
			}
		}
	}
}

func TestSDCDemoDetects(t *testing.T) {
	n, err := RunSDCDemo()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no corruption detected")
	}
}

func TestDilatedModelScaling(t *testing.T) {
	base := dilated(1)
	d2 := dilated(2)
	if d2.Latency != 2*base.Latency {
		t.Error("latency not scaled")
	}
	if d2.BytesPerSec != base.BytesPerSec/2 {
		t.Error("bandwidth not scaled")
	}
	if d2.SendOverhead != 2*base.SendOverhead {
		t.Error("overhead not scaled")
	}
}

func TestTimeWorkloadUsesBarrierWindow(t *testing.T) {
	w := Workload{"sleepy", 2, func(c *mpi.Comm) apps.Result {
		time.Sleep(20 * time.Millisecond)
		c.Barrier()
		return apps.Result{Checksum: 42}
	}}
	d, sum, _, err := timedRun(cluster.Config{Ranks: w.Ranks, Protocol: cluster.Native, Timeout: time.Minute}, 1, w.checksum)
	if err != nil {
		t.Fatal(err)
	}
	if d < 20*time.Millisecond {
		t.Errorf("measured %v, expected at least the sleep", d)
	}
	if sum != 42 {
		t.Errorf("sum %v", sum)
	}
}
