package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/obs"
)

// fakeWorker is a test-side client of the registry control protocol.
type fakeWorker struct {
	c   net.Conn
	enc *json.Encoder
	dec *json.Decoder
}

func dialRegistry(t *testing.T, addr string) *fakeWorker {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &fakeWorker{c: c, enc: json.NewEncoder(c), dec: json.NewDecoder(c)}
}

func (w *fakeWorker) send(t *testing.T, m ctlMsg) {
	t.Helper()
	if err := w.enc.Encode(m); err != nil {
		t.Fatal(err)
	}
}

func (w *fakeWorker) recv(t *testing.T) ctlMsg {
	t.Helper()
	var m ctlMsg
	w.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := w.dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRegistryRendezvousHandshake(t *testing.T) {
	store, err := ckpt.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg, err := newRegistry(2, 2, store, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	// Worker 1 joins first: no world broadcast yet (worker 0's listener
	// is not up, so publishing would let peers dial into the void).
	w1 := dialRegistry(t, reg.Addr())
	w1.send(t, ctlMsg{Op: opHello, Proc: 1, Addr: "127.0.0.1:5001"})
	select {
	case ev := <-reg.events:
		t.Fatalf("premature event %v before all workers joined", ev.kind)
	case <-time.After(50 * time.Millisecond):
	}

	w0 := dialRegistry(t, reg.Addr())
	w0.send(t, ctlMsg{Op: opHello, Proc: 0, Addr: "127.0.0.1:5000"})

	// Both joined: every worker receives the full world table, in proc
	// order, and the coordinator sees evReady.
	for _, w := range []*fakeWorker{w0, w1} {
		world := w.recv(t)
		if world.Op != opWorld {
			t.Fatalf("op = %q, want world", world.Op)
		}
		if len(world.Addrs) != 2 || world.Addrs[0] != "127.0.0.1:5000" || world.Addrs[1] != "127.0.0.1:5001" {
			t.Fatalf("world table %v", world.Addrs)
		}
	}
	if ev := <-reg.events; ev.kind != evReady {
		t.Fatalf("event %v, want evReady", ev.kind)
	}
}

func TestRegistryCommitsWaveWhenAllRanksSaved(t *testing.T) {
	dir := t.TempDir()
	store, err := ckpt.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := newRegistry(2, 2, store, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	w0 := dialRegistry(t, reg.Addr())
	w0.send(t, ctlMsg{Op: opHello, Proc: 0, Addr: "a"})
	w1 := dialRegistry(t, reg.Addr())
	w1.send(t, ctlMsg{Op: opHello, Proc: 1, Addr: "b"})
	w0.recv(t) // world
	w1.recv(t)
	<-reg.events // ready

	// The writers actually save their files (the registry only counts and
	// stamps; the data goes through the shared store).
	if err := store.Save(0, 3, []byte("r0"), true); err != nil {
		t.Fatal(err)
	}
	w0.send(t, ctlMsg{Op: opCkpt, Rank: 0, Step: 3})
	waitFor := func(committed bool) bool {
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if store.Committed(3) == committed {
				return true
			}
			time.Sleep(5 * time.Millisecond)
		}
		return false
	}
	if !waitFor(false) {
		t.Fatal("wave committed after a single rank's save")
	}
	if err := store.Save(1, 3, []byte("r1"), true); err != nil {
		t.Fatal(err)
	}
	w1.send(t, ctlMsg{Op: opCkpt, Rank: 1, Step: 3})
	if !waitFor(true) {
		t.Fatal("wave not committed after every rank saved")
	}
	if wave, err := store.LatestCommon(2); err != nil || wave != 3 {
		t.Fatalf("LatestCommon = %d, %v; want 3", wave, err)
	}

	// Worker events still flow after checkpoint traffic.
	w0.send(t, ctlMsg{Op: opDone, Proc: 0, Checksum: 42})
	ev := <-reg.events
	if ev.kind != evDone || ev.proc != 0 || ev.msg.Checksum != 42 {
		t.Fatalf("event %+v", ev)
	}
}

func TestLineWriterPrefixesEveryLine(t *testing.T) {
	var out bytes.Buffer
	lw := &lineWriter{w: &out, prefix: "[r1.0] "}
	io.WriteString(lw, "hello\nwor")
	io.WriteString(lw, "ld\n")
	want := "[r1.0] hello\n[r1.0] world\n"
	if out.String() != want {
		t.Fatalf("got %q, want %q", out.String(), want)
	}
}

// TestDistWorkerHelper is not a test: it is the worker-mode body used by
// TestDistributedRollbackRealProcesses, which re-execs this test binary
// with the worker env contract set (the same hidden-mode trick sdrun
// uses). It must exit the process so the test framework never reports on
// it. It runs rollbackApp(12, 3), or replayRing(12, 2) when the run's
// WorkerEnv sets SDR_TEST_APP=ring, boomRing when it sets
// SDR_TEST_APP=boom, or storeLoss without flushes when it sets
// SDR_TEST_APP=storeloss.
func TestDistWorkerHelper(t *testing.T) {
	if !DistWorkerActive() {
		t.Skip("not in worker mode")
	}
	cfg, err := WorkerConfigFromEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(workerExitConfig)
	}
	if os.Getenv("SDR_TEST_SILENT_PROC") == os.Getenv(EnvProc) {
		silentWorkerMain(cfg)
	}
	app := rollbackApp(12, 3)
	switch os.Getenv("SDR_TEST_APP") {
	case "ring":
		app = replayRing(12, 2, nil)
	case "boom":
		app = boomRing
	case "storeloss":
		app = func(env *Env) (any, error) { return storeLoss(env.store.Dir(), false)(env) }
	}
	os.Exit(RunWorker(cfg, func(env *Env) (any, error) {
		res, err := app(env)
		if err != nil {
			return nil, err
		}
		sum, _ := res.(uint64)
		return WorkerResult{Checksum: float64(sum)}, nil
	}))
}

// TestDistributedRollbackRealProcesses is the cross-process incarnation of
// TestRollbackSeedsRestoredState: both replicas of rank 1 are SIGKILLed —
// as real OS processes — at step 7, the coordinator must observe the
// exhaustion, tear the epoch down, and respawn every worker from the
// latest committed wave, and the final results must equal the fault-free
// answer.
func TestDistributedRollbackRealProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	const steps = 12
	rep := RunDistributed(DistConfig{
		Config: Config{
			Ranks:       2,
			Replication: 2,
			Protocol:    SDR,
			Failures: []FailureEvent{
				{Rank: 1, Rep: 0, AtStep: 7},
				{Rank: 1, Rep: 1, AtStep: 7},
			},
			CheckpointDir: t.TempDir(),
			Timeout:       60 * time.Second,
		},
		WorkerCmd: []string{os.Args[0], "-test.run=^TestDistWorkerHelper$"},
		LogSink:   io.Discard,
	})
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", rep.Restarts)
	}
	// Waves commit every 3 steps; the newest committed line by step 7 is
	// wave 6, but a lagging writer can leave it at 3 (see the in-process
	// test for the same tolerance).
	if rep.RestartWave != 6 && rep.RestartWave != 3 {
		t.Errorf("RestartWave = %d, want a committed wave (3 or 6)", rep.RestartWave)
	}
	want := float64(wantPingPong(steps))
	for _, p := range rep.Procs {
		if p.Crashed {
			t.Errorf("rank %d rep %d: crashed in the final epoch", p.Rank, p.Rep)
			continue
		}
		if p.Result.Checksum != want {
			t.Errorf("rank %d rep %d: checksum %v, fault-free run computes %v", p.Rank, p.Rep, p.Result.Checksum, want)
		}
	}
}

// TestDistributedPartialReplicationSubstitution proves the distributed
// runtime honors the degree vector: rank 0 runs unreplicated, so only 3
// worker OS processes exist (not 4), and a SIGKILL of the replicated
// rank's second replica is still absorbed by substitution.
func TestDistributedPartialReplicationSubstitution(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	const steps = 12
	rep := RunDistributed(DistConfig{
		Config: Config{
			Ranks:             2,
			Replication:       2,
			Protocol:          SDR,
			UnreplicatedRanks: []int{0},
			Failures: []FailureEvent{
				{Rank: 1, Rep: 1, AtStep: 5},
			},
			CheckpointDir: t.TempDir(),
			Timeout:       60 * time.Second,
		},
		WorkerCmd: []string{os.Args[0], "-test.run=^TestDistWorkerHelper$"},
		LogSink:   io.Discard,
	})
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Procs) != 3 {
		t.Fatalf("spawned %d workers, want 3 (dense degree-aware layout)", len(rep.Procs))
	}
	if rep.Restarts != 0 {
		t.Fatalf("Restarts = %d, want 0 (replicated-rank loss must be absorbed)", rep.Restarts)
	}
	want := float64(wantPingPong(steps))
	killed := 0
	for _, p := range rep.Procs {
		if p.Crashed {
			killed++
			continue
		}
		if p.Result.Checksum != want {
			t.Errorf("rank %d rep %d: checksum %v, want %v", p.Rank, p.Rep, p.Result.Checksum, want)
		}
	}
	if killed != 1 {
		t.Errorf("killed = %d, want exactly the scheduled victim", killed)
	}
}

// TestDistributedPartialUnreplicatedKillRollsBack is the partial
// failure ladder across real processes: the unreplicated rank's only
// replica is SIGKILLed, so there is no substitution rung — the
// coordinator must go straight to a rollback restart from the latest
// committed wave and the survivors must compute the fault-free answer.
func TestDistributedPartialUnreplicatedKillRollsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	const steps = 12
	rep := RunDistributed(DistConfig{
		Config: Config{
			Ranks:             2,
			Replication:       2,
			Protocol:          SDR,
			UnreplicatedRanks: []int{0},
			Failures: []FailureEvent{
				{Rank: 0, Rep: 0, AtStep: 7},
			},
			CheckpointDir: t.TempDir(),
			Timeout:       60 * time.Second,
		},
		WorkerCmd: []string{os.Args[0], "-test.run=^TestDistWorkerHelper$"},
		LogSink:   io.Discard,
	})
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Procs) != 3 {
		t.Fatalf("spawned %d workers, want 3", len(rep.Procs))
	}
	if rep.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1 (unreplicated loss must roll back)", rep.Restarts)
	}
	if rep.RestartWave != 6 && rep.RestartWave != 3 {
		t.Errorf("RestartWave = %d, want a committed wave (3 or 6)", rep.RestartWave)
	}
	want := float64(wantPingPong(steps))
	for _, p := range rep.Procs {
		if p.Crashed {
			t.Errorf("rank %d rep %d: crashed in the final epoch", p.Rank, p.Rep)
			continue
		}
		if p.Result.Checksum != want {
			t.Errorf("rank %d rep %d: checksum %v, want %v", p.Rank, p.Rep, p.Result.Checksum, want)
		}
	}
}

// silentWorkerMain is the hung-worker body: it completes the rendezvous
// (a real TCP listener stands in for the peer wire, accepting and
// discarding traffic so peers never stall on dial) and keeps its control
// connection open — but never pings. The coordinator's liveness probe must
// classify it as failed. Never returns.
func silentWorkerMain(cfg WorkerConfig) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.Exit(workerExitConfig)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(io.Discard, c) }()
		}
	}()
	conn, err := net.DialTimeout("tcp", cfg.Registry, 10*time.Second)
	if err != nil {
		os.Exit(workerExitConfig)
	}
	if err := json.NewEncoder(conn).Encode(ctlMsg{Op: opHello, Proc: int(cfg.Proc), Addr: ln.Addr().String()}); err != nil {
		os.Exit(workerExitConfig)
	}
	select {} // conn stays open, no pings: only the probe can end this
}

// TestDistributedHealthProbeKillsHungWorker drives the liveness-probe path
// end to end: a worker that rendezvouses and then goes silent (control
// connection open, no pings, no application progress) must be killed by
// the coordinator's health probe, its death broadcast, and the loss
// absorbed by the substitution rung — the survivors still compute the
// fault-free answer.
func TestDistributedHealthProbeKillsHungWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	const steps = 12
	const silentProc = 3 // rank 1, rep 1 in the dense 2x2 layout
	killsBefore := mHealthKills.Value()
	var sink bytes.Buffer
	rep := RunDistributed(DistConfig{
		Config: Config{
			Ranks:         2,
			Replication:   2,
			Protocol:      SDR,
			CheckpointDir: t.TempDir(),
			Timeout:       60 * time.Second,
		},
		WorkerCmd:     []string{os.Args[0], "-test.run=^TestDistWorkerHelper$"},
		WorkerEnv:     []string{fmt.Sprintf("SDR_TEST_SILENT_PROC=%d", silentProc)},
		LogSink:       &syncWriter{w: &sink},
		HealthTimeout: 2 * time.Second,
	})
	if rep.TimedOut {
		t.Fatal("run timed out instead of health-killing the hung worker")
	}
	if rep.Restarts != 0 {
		t.Fatalf("Restarts = %d, want 0 (replicated-rank loss must be absorbed)", rep.Restarts)
	}
	want := float64(wantPingPong(steps))
	for _, p := range rep.Procs {
		if int(p.Proc) == silentProc {
			if p.Err == "" {
				t.Errorf("silent worker reported a result: %+v", p)
			}
			continue
		}
		if p.Err != "" {
			t.Errorf("rank %d rep %d: %s", p.Rank, p.Rep, p.Err)
			continue
		}
		if p.Result.Checksum != want {
			t.Errorf("rank %d rep %d: checksum %v, want %v", p.Rank, p.Rep, p.Result.Checksum, want)
		}
	}
	if !strings.Contains(sink.String(), "silent for") {
		t.Error("coordinator log does not mention the liveness kill")
	}
	if got := mHealthKills.Value(); got != killsBefore+1 {
		t.Errorf("health kills counter = %d, want %d", got, killsBefore+1)
	}
	probeKill := false
	for _, ev := range rep.Trace.Events() {
		if ev.Stage == obs.StageKill && strings.Contains(ev.Detail, "liveness probe") && ev.Proc == silentProc {
			probeKill = true
		}
	}
	if !probeKill {
		t.Error("trace has no liveness-probe kill event for the silent worker")
	}
}

// TestDistributedSurvivesSingleReplicaKill is the substitution rung, cross
// process: one SIGKILLed replica, no rollback, identical results.
func TestDistributedSurvivesSingleReplicaKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	const steps = 12
	rep := RunDistributed(DistConfig{
		Config: Config{
			Ranks:       2,
			Replication: 2,
			Protocol:    SDR,
			Failures: []FailureEvent{
				{Rank: 1, Rep: 1, AtStep: 5},
			},
			CheckpointDir: t.TempDir(),
			Timeout:       60 * time.Second,
		},
		WorkerCmd: []string{os.Args[0], "-test.run=^TestDistWorkerHelper$"},
		LogSink:   io.Discard,
	})
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 0 {
		t.Fatalf("Restarts = %d, want 0 (substitution must absorb a single replica loss)", rep.Restarts)
	}
	want := float64(wantPingPong(steps))
	killed := 0
	for _, p := range rep.Procs {
		if p.Crashed {
			killed++
			continue
		}
		if p.Result.Checksum != want {
			t.Errorf("rank %d rep %d: checksum %v, want %v", p.Rank, p.Rep, p.Result.Checksum, want)
		}
	}
	if killed != 1 {
		t.Errorf("killed = %d, want exactly the scheduled victim", killed)
	}
}

// TestDistributedRestartLoadsRestoreFileBeforeHello pins ROADMAP known bug
// (d): a restarted epoch's fast workers commit wave w+1 and prune wave w
// while a slow one has said hello but not yet read w. The test is the
// registry: it starts two real workers on committed wave 6, and — with
// both hellos in hand, before either worker gets the world table — does
// what the fast half of an epoch does next: commits wave 9 and prunes.
// A worker that loads after the rendezvous finds its file gone and exits;
// one that loaded before its hello computes the fault-free answer.
func TestDistributedRestartLoadsRestoreFileBeforeHello(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	const steps, wave = 12, 6
	dir := t.TempDir()
	store, err := ckpt.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	state := binary.LittleEndian.AppendUint64(nil, wantPingPong(wave))
	commit := func(step int) {
		t.Helper()
		for rank := 0; rank < 2; rank++ {
			if err := store.Save(rank, step, state, true); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.Commit(step); err != nil {
			t.Fatal(err)
		}
	}
	commit(wave)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	layout, err := core.NewLayout(2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DistConfig{
		Config: Config{
			Ranks: 2, Replication: 1, Protocol: Native, CheckpointDir: dir,
		},
		WorkerCmd: []string{os.Args[0], "-test.run=^TestDistWorkerHelper$"},
	}
	var logBuf bytes.Buffer
	sink := &syncWriter{w: &logBuf}
	logs := func() string {
		sink.mu.Lock()
		defer sink.mu.Unlock()
		return logBuf.String()
	}
	exits := make(chan seatEvent, 2)
	for proc := 0; proc < 2; proc++ {
		wc := cfg.seat(layout, proc, nil, epochSeed{epoch: 1, wave: wave})
		wc.Registry = ln.Addr().String()
		w, err := spawnWorker(cfg, wc, sink, exits)
		if err != nil {
			t.Fatal(err)
		}
		defer w.cmd.Process.Kill()
	}

	workers := make([]*fakeWorker, 2) // the registry's end of each control connection
	addrs := make([]string, 2)
	for range workers {
		ln.(*net.TCPListener).SetDeadline(time.Now().Add(30 * time.Second))
		c, err := ln.Accept()
		if err != nil {
			t.Fatalf("worker never dialed the registry: %v\n%s", err, logs())
		}
		defer c.Close()
		w := &fakeWorker{c: c, enc: json.NewEncoder(c), dec: json.NewDecoder(c)}
		hello := w.recv(t)
		if hello.Op != opHello {
			t.Fatalf("first message %q, want hello", hello.Op)
		}
		workers[hello.Proc], addrs[hello.Proc] = w, hello.Addr
	}

	commit(wave + 3)
	if err := store.Prune(wave + 3); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(0, wave); err == nil {
		t.Fatal("the restart wave survived the prune: the test exercises nothing")
	}

	for _, w := range workers {
		w.send(t, ctlMsg{Op: opWorld, Addrs: addrs})
	}
	for proc, w := range workers {
		for {
			var m ctlMsg
			w.c.SetReadDeadline(time.Now().Add(30 * time.Second))
			if err := w.dec.Decode(&m); err != nil {
				t.Fatalf("worker %d left without a result: %v\n%s", proc, err, logs())
			}
			if m.Op != opDone {
				continue // pings, checkpoint notes
			}
			if m.Err != "" || m.Checksum != float64(wantPingPong(steps)) {
				t.Errorf("worker %d: checksum %v err %q, fault-free run computes %v", proc, m.Checksum, m.Err, wantPingPong(steps))
			}
			break
		}
	}
	for _, w := range workers {
		w.send(t, ctlMsg{Op: opShutdown})
	}
	for range workers {
		if e := <-exits; e.out.crashed || e.out.exhausted {
			t.Errorf("worker %d exited %+v\n%s", e.proc, e.out, logs())
		}
	}
}
