package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/transport"
)

// WorkerConfig is one distributed worker's seat: the run spec the
// coordinator forwards (Ranks, the layout's degree Replication and
// Degrees vector, Protocol, CheckpointDir, RecoveryMode) and where this
// physical process of the world sits in it. It travels as the env
// contract (environ / WorkerConfigFromEnv in env.go).
type WorkerConfig struct {
	Config
	Proc        transport.ProcID
	Registry    string
	RestartWave int   // committed wave to restore from, -1 for fresh start
	Epoch       int   // rollback restarts before this epoch
	KillSteps   []int // step boundaries at which to park and await SIGKILL

	// ReplayWave marks this process as a localized-replay relaunch
	// restoring that wave (-1 normally); DeadProcs lists workers already
	// dead when this process was spawned mid-epoch.
	ReplayWave int
	DeadProcs  []int

	// RingDir is the coordinator-created per-epoch directory for the
	// colocated shared-memory ring transport; empty keeps every pair on
	// TCP.
	RingDir string
}

// DistWorkerActive reports whether this process was exec'd as a
// distributed worker (the hidden mode commands enter before flag parsing).
func DistWorkerActive() bool { return EnvFlag(EnvWorker) }

// workerState implements harness for a distributed worker: checkpoint
// bookkeeping and the kill schedule are forwarded to / driven by the
// coordinator over the control plane.
type workerState struct {
	cfg   WorkerConfig
	cc    *ctlConn
	kills *schedule // this process's own, from KillSteps
}

func (ws *workerState) noteCkpt(rank, step int) error {
	return ws.cc.send(ctlMsg{Op: opCkpt, Rank: rank, Step: step})
}

// stepHook realizes the kill schedule: at a scheduled boundary the worker
// waits for its last checkpoint wave to persist, tells the coordinator it
// is parked and blocks until the SIGKILL lands — giving the crash the
// exact step placement, and the store the same waves, that the in-process
// harness has, with a real process death.
func (ws *workerState) stepHook(e *Env, step int, snapshot func() []byte) {
	if !ws.kills.fire(ws.cfg.Proc, step) {
		return
	}
	e.settle(true)
	_ = ws.cc.send(ctlMsg{Op: opKillMe, Proc: int(ws.cfg.Proc), Step: step})
	select {} // await SIGKILL; the ping goroutine keeps the conn warm
}

// RunWorker is the body of the hidden worker mode: rendezvous with the
// registry, build the per-process transport, run the shared process body,
// and participate in the epoch's drain/shutdown. It returns the process
// exit code.
func RunWorker(cfg WorkerConfig, app AppFunc) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "worker %d: %v\n", cfg.Proc, err)
		return workerExitConfig
	}

	layout, err := cfg.layout()
	if err != nil {
		return fail(err)
	}
	rank := layout.RankOf(cfg.Proc)
	rep := layout.RepOf(cfg.Proc)
	own := make([]FailureEvent, len(cfg.KillSteps))
	for i, s := range cfg.KillSteps {
		own[i] = FailureEvent{Rank: rank, Rep: rep, AtStep: s}
	}
	kills, err := newSchedule(layout, own)
	if err != nil {
		return fail(err)
	}

	conn, err := net.DialTimeout("tcp", cfg.Registry, 10*time.Second)
	if err != nil {
		return fail(fmt.Errorf("dial registry %s: %w", cfg.Registry, err))
	}
	// leaving marks the close below as RunWorker's own: the control-plane
	// reader must not mistake it for a lost coordinator and exit with its
	// code ahead of the one RunWorker is returning (an exhaustion reported
	// as a plain death never rolls back).
	var leaving atomic.Bool
	defer func() {
		leaving.Store(true)
		conn.Close()
	}()
	cc := &ctlConn{enc: json.NewEncoder(conn)}
	dec := json.NewDecoder(conn)
	exhausted := func(rank int) int {
		_ = cc.send(ctlMsg{Op: opExhausted, Rank: rank})
		return workerExitExhausted
	}

	// Observability endpoint: /healthz + /metrics on a loopback port,
	// published to the coordinator via the hello below. Failure to bind is
	// degraded service, not a fatal error — the worker still computes.
	obsAddr := ""
	if srv, err := obs.Serve("", obs.Default, map[string]string{
		"proc":  strconv.Itoa(int(cfg.Proc)),
		"rank":  strconv.Itoa(rank),
		"rep":   strconv.Itoa(rep),
		"epoch": strconv.Itoa(cfg.Epoch),
	}); err == nil {
		obsAddr = srv.Addr()
		defer srv.Close()
	} else {
		fmt.Fprintf(os.Stderr, "worker %d: obs server unavailable: %v\n", cfg.Proc, err)
	}

	// Recovery-ladder trace events emitted by the protocol core surface on
	// stdout, which the coordinator's line-prefixed sink attributes to this
	// replica — the distributed run's event stream is the concatenation.
	traceStart := time.Now()
	obs.DefaultTrace.OnEvent = func(ev obs.Event) {
		fmt.Printf("TRACE %s\n", ev.Format(traceStart))
	}

	// Per-process transport: a full-size network whose only live endpoint
	// is ours, wired to peers through the PeerWire.
	nw, pw, err := transport.NewPeerNetwork(layout.Procs(), cfg.Proc, "")
	if err != nil {
		return fail(err)
	}
	defer nw.Close()
	defer pw.Close()

	// A rollback restart reads its restore file BEFORE the hello below. The
	// registry prunes wave w as soon as the epoch commits w+1, and the epoch
	// cannot take a step until every worker has said hello — so a worker
	// that has its bytes in hand by then can be as slow to start as it
	// likes. Loading after the rendezvous let the fast workers commit and
	// prune under a slow one ("rollback restore wave 6: no such file").
	ws := &workerState{cfg: cfg, cc: cc, kills: kills}
	env := &Env{Rank: rank, Rep: rep, h: ws, restoredStep: -1, ranks: cfg.Ranks, epoch: cfg.Epoch}
	if cfg.CheckpointDir != "" {
		if env.store, err = ckpt.NewStore(cfg.CheckpointDir); err != nil {
			return fail(err)
		}
	}
	if cfg.ReplayWave < 0 && cfg.RestartWave >= 0 && env.store != nil {
		if env.restored, err = env.store.Load(rank, cfg.RestartWave); err != nil {
			return fail(fmt.Errorf("rollback restore wave %d: %w", cfg.RestartWave, err))
		}
		env.restoredStep = cfg.RestartWave
	}

	// Rendezvous: register our listener, wait for the world table. A
	// worker that dies before the rendezvous completes makes the
	// coordinator broadcast `dead` to the already-joined workers, so the
	// handshake loop must tolerate (and remember) control traffic ahead
	// of the world message instead of treating it as a protocol error.
	host := hostIdentity()
	if err := cc.send(ctlMsg{Op: opHello, Proc: int(cfg.Proc), Addr: pw.Addr(), Obs: obsAddr, Host: host}); err != nil {
		return fail(fmt.Errorf("hello: %w", err))
	}
	// revive follows a logging-enabled rank's relaunch: point the wire at
	// its new incarnation, then acknowledge — the registry releases the
	// joiner only after every survivor has, so its recovery broadcast
	// cannot race this update.
	revive := func(m ctlMsg) {
		pw.Revive(transport.ProcID(m.Proc), m.Addr)
		_ = cc.send(ctlMsg{Op: opReviveAck, Proc: int(cfg.Proc), For: m.Proc})
	}
	var pendingDead []transport.ProcID
	var world ctlMsg
	for world.Op != opWorld {
		var m ctlMsg
		if err := dec.Decode(&m); err != nil {
			return fail(fmt.Errorf("world handshake failed: %w", err))
		}
		switch m.Op {
		case opWorld:
			world = m
		case opDead:
			pendingDead = append(pendingDead, transport.ProcID(m.Proc))
		case opRevive:
			// Another relaunch completing while we handshake (our own
			// world table will carry its new address, so updating the
			// wire now is redundant but harmless) — the registry's
			// serialized rejoin flow is waiting on OUR ack too.
			revive(m)
		case opShutdown:
			return 0 // epoch abandoned before it began
		}
	}
	pw.SetPeers(world.Addrs)
	// Arm the colocated ring transport for same-host peers. Relaunched
	// workers (localized replay) never arm rings: their peers banned the
	// pair at death, and a one-sided ring would tear FIFO with the TCP
	// stream the survivors settled on.
	if cfg.RingDir != "" && cfg.ReplayWave < 0 && host != "" {
		colocated := make([]bool, len(world.Hosts))
		for p, h := range world.Hosts {
			colocated[p] = h == host && transport.ProcID(p) != cfg.Proc
		}
		pw.SetRingPeers(transport.RingConfig{Dir: cfg.RingDir}, colocated)
	}
	for _, p := range cfg.DeadProcs {
		pendingDead = append(pendingDead, transport.ProcID(p))
	}

	// noteDead realizes one failure notification: mark the peer dead on
	// the wire and inject the same in-band control message
	// detect.Service delivers in-process (the coordinator is the paper's
	// external failure detector).
	noteDead := func(dead transport.ProcID) {
		pw.MarkDead(dead)
		nw.Inject(cfg.Proc, &transport.Message{
			Src:  transport.NoProc,
			Kind: transport.KindCtl,
			Tag:  detect.TagFailure,
			Meta: [4]int64{int64(dead)},
		})
	}
	for _, dead := range pendingDead {
		noteDead(dead)
	}

	// Control-plane reader: failure notifications and the shutdown
	// signal. Losing the registry conn means the coordinator is gone (or
	// tearing the epoch down) — this process is an orphan and must not
	// linger.
	shutdown := make(chan struct{})
	go func() {
		for {
			var m ctlMsg
			if err := dec.Decode(&m); err != nil {
				if leaving.Load() {
					return
				}
				os.Exit(1)
			}
			switch m.Op {
			case opDead:
				noteDead(transport.ProcID(m.Proc))
			case opRevive:
				revive(m)
			case opShutdown:
				close(shutdown)
				return
			}
		}
	}()

	// Liveness pings, decoupled from application progress so a
	// compute-bound step cannot trip the coordinator's health probe.
	go func() {
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for range tick.C {
			if cc.send(ctlMsg{Op: opPing, Proc: int(cfg.Proc)}) != nil {
				return
			}
		}
	}()

	b := procBody{cfg: cfg.Config, layout: layout, nw: nw, env: env}
	if cfg.ReplayWave >= 0 {
		// Localized-replay relaunch: this worker alone rolls back, to the
		// wave the coordinator validated; a state that no longer loads
		// fails CLOSED into the global-rollback rung.
		if env.store == nil {
			return fail(fmt.Errorf("localized replay without a checkpoint store"))
		}
		seed, err := readReplay(env.store, rank, cfg.ReplayWave)
		if err != nil {
			fmt.Fprintf(os.Stderr, "worker %d: replay state unusable: %v\n", cfg.Proc, err)
			return exhausted(rank)
		}
		env.restored, env.restoredStep, b.state = seed.app, seed.wave, seed.state
	}

	// Report the result, then drain until the coordinator's shutdown: a
	// peer may still need this engine's cooperation (rendezvous
	// handshakes, acks) to finish.
	var sendErr error
	out := b.run(app, func(res any, err error) bool {
		m := ctlMsg{Op: opDone, Proc: int(cfg.Proc)}
		if wr, ok := res.(WorkerResult); ok {
			m.Checksum, m.Residual, m.Iterations = wr.Checksum, wr.Residual, wr.Iterations
		}
		if err != nil {
			m.Err = err.Error()
		}
		sendErr = cc.send(m)
		return sendErr == nil
	}, shutdown)
	switch {
	case out.exhausted:
		// Second rung of the recovery ladder: report and exit with the
		// exhaustion code; the coordinator tears the epoch down and
		// respawns everyone from the latest committed wave.
		return exhausted(out.rank)
	case out.crashed:
		return fail(fmt.Errorf("worker observed its own crash flag"))
	case out.err != nil:
		return fail(out.err)
	case sendErr != nil:
		return fail(fmt.Errorf("report result: %w", sendErr))
	}
	return 0
}
