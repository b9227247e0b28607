package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/transport"
)

// WorkerConfig is the env-contract side of a distributed worker: one
// physical process of the r·n world, running in its own OS process.
type WorkerConfig struct {
	Proc          transport.ProcID
	Ranks         int
	Replication   int   // maximum replication degree
	Degrees       []int // per-rank degree vector; nil = uniform Replication
	Protocol      Protocol
	Registry      string
	CheckpointDir string
	RestartWave   int // committed wave to restore from, -1 for fresh start
	Epoch         int
	KillSteps     []int // step boundaries at which to park and await SIGKILL

	// RecoveryMode arms sender-based message logging for degree-1 ranks
	// ("log"); ReplayWave marks this process as a localized-replay
	// relaunch restoring that wave (-1 normally); DeadProcs lists workers
	// already dead when this process was spawned mid-epoch.
	RecoveryMode RecoveryMode
	ReplayWave   int
	DeadProcs    []int

	// RingDir is the coordinator-created per-epoch directory for the
	// colocated shared-memory ring transport; empty keeps every pair on
	// TCP. RingBytes overrides the per-pair ring capacity (0 = default).
	RingDir   string
	RingBytes int
}

// recoveryLog reports whether the localized-replay rung is armed.
func (c WorkerConfig) recoveryLog() bool { return c.RecoveryMode == RecoveryLog }

// DistWorkerActive reports whether this process was exec'd as a
// distributed worker (the hidden mode commands enter before flag parsing).
func DistWorkerActive() bool { return EnvFlag(EnvWorker) }

// WorkerConfigFromEnv decodes the worker env contract through the typed
// accessors in env.go — the single sanctioned path to the raw environment.
func WorkerConfigFromEnv() (WorkerConfig, error) {
	var cfg WorkerConfig
	var err error
	var v int
	if v, err = EnvInt(EnvProc); err != nil {
		return cfg, err
	}
	cfg.Proc = transport.ProcID(v)
	if cfg.Ranks, err = EnvInt(EnvRanks); err != nil {
		return cfg, err
	}
	if cfg.Replication, err = EnvInt(EnvRepl); err != nil {
		return cfg, err
	}
	if cfg.RestartWave, err = EnvInt(EnvWave); err != nil {
		return cfg, err
	}
	if cfg.Epoch, err = EnvInt(EnvEpoch); err != nil {
		return cfg, err
	}
	// Validate the string-typed env values at decode time: a typo'd
	// protocol or recovery mode must fail fast with the env var named,
	// not silently select a default behavior deep in the stack.
	switch p := Protocol(EnvString(EnvProtocol)); p {
	case Native, SDR, Mirror, Leader:
		cfg.Protocol = p
	default:
		return cfg, fmt.Errorf("cluster: bad %s=%q (want native|sdr|mirror|leader)",
			EnvProtocol, string(p))
	}
	cfg.Registry = EnvString(EnvRegistry)
	cfg.CheckpointDir = EnvString(EnvCkptDir)
	switch m := RecoveryMode(EnvString(EnvRecovery)); m {
	case "", RecoveryRollback, RecoveryLog:
		cfg.RecoveryMode = m
	default:
		return cfg, fmt.Errorf("cluster: bad %s=%q (want rollback|log)",
			EnvRecovery, string(m))
	}
	if cfg.ReplayWave, err = EnvIntOr(EnvReplay, -1); err != nil {
		return cfg, err
	}
	if cfg.DeadProcs, err = EnvInts(EnvDead); err != nil {
		return cfg, err
	}
	if cfg.KillSteps, err = EnvInts(EnvKills); err != nil {
		return cfg, err
	}
	if cfg.Degrees, err = EnvInts(EnvDegrees); err != nil {
		return cfg, err
	}
	cfg.RingDir = EnvString(EnvRing)
	if cfg.RingBytes, err = EnvIntOr(EnvRingBytes, 0); err != nil {
		return cfg, err
	}
	if cfg.Registry == "" {
		return cfg, fmt.Errorf("cluster: %s not set", EnvRegistry)
	}
	return cfg, nil
}

// ctlClient is the worker's connection to the registry; safe for
// concurrent senders (app goroutine, ping goroutine).
type ctlClient struct {
	mu  sync.Mutex    // sdr:lockrank ctl
	enc *json.Encoder // guarded by mu
}

func (cc *ctlClient) send(m ctlMsg) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	// sdr:holdblock-ok control-plane framing: the encoder lock is what keeps concurrent ctl messages unmixed
	return cc.enc.Encode(m)
}

// workerState implements harness for a distributed worker: checkpoint
// bookkeeping and the kill schedule are forwarded to / driven by the
// coordinator over the control plane.
type workerState struct {
	cfg   WorkerConfig
	cc    *ctlClient
	kills map[int]bool
}

func (ws *workerState) noteCkpt(rank, step int) error {
	return ws.cc.send(ctlMsg{Op: opCkpt, Rank: rank, Step: step})
}

func (ws *workerState) numRanks() int { return ws.cfg.Ranks }

func (ws *workerState) epochIndex() int { return ws.cfg.Epoch }

// stepHook realizes the kill schedule: at a scheduled boundary the worker
// tells the coordinator it is parked and blocks until the SIGKILL lands —
// giving the crash the exact step placement the in-process harness has,
// with a real process death.
func (ws *workerState) stepHook(e *Env, step int, snapshot func() []byte) {
	if !ws.kills[step] {
		return
	}
	delete(ws.kills, step)
	_ = ws.cc.send(ctlMsg{Op: opKillMe, Proc: int(ws.cfg.Proc), Step: step})
	select {} // await SIGKILL; the ping goroutine keeps the conn warm
}

// RunWorker is the body of the hidden worker mode: rendezvous with the
// registry, build the per-process transport/protocol stack, run the
// application, and participate in the epoch's drain/shutdown. It returns
// the process exit code.
func RunWorker(cfg WorkerConfig, app AppFunc) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "worker %d: %v\n", cfg.Proc, err)
		return workerExitConfig
	}

	layout, err := core.NewLayout(cfg.Ranks, cfg.Replication, cfg.Degrees)
	if err != nil {
		return fail(err)
	}
	rank := layout.RankOf(cfg.Proc)
	rep := layout.RepOf(cfg.Proc)

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
	cc := &ctlClient{enc: json.NewEncoder(conn)}
	dec := json.NewDecoder(conn)

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
	var store *ckpt.Store
	if cfg.CheckpointDir != "" {
		if store, err = ckpt.NewStore(cfg.CheckpointDir); err != nil {
			return fail(err)
		}
	}
	var restored []byte
	restoredStep := -1
	if cfg.ReplayWave < 0 && cfg.RestartWave >= 0 && store != nil {
		if restored, err = store.Load(rank, cfg.RestartWave); err != nil {
			return fail(fmt.Errorf("rollback restore wave %d: %w", cfg.RestartWave, err))
		}
		restoredStep = cfg.RestartWave
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
			pw.Revive(transport.ProcID(m.Proc), m.Addr)
			_ = cc.send(ctlMsg{Op: opReviveAck, Proc: int(cfg.Proc), For: m.Proc})
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
		pw.SetRingPeers(transport.RingConfig{Dir: cfg.RingDir, Bytes: cfg.RingBytes}, colocated)
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
				// A logging-enabled rank was relaunched: point the wire at
				// its new incarnation, then acknowledge — the registry
				// releases the joiner only after every survivor has, so
				// its recovery broadcast cannot race this update.
				pw.Revive(transport.ProcID(m.Proc), m.Addr)
				_ = cc.send(ctlMsg{Op: opReviveAck, Proc: int(cfg.Proc), For: m.Proc})
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

	ws := &workerState{cfg: cfg, cc: cc, kills: make(map[int]bool)}
	for _, s := range cfg.KillSteps {
		ws.kills[s] = true
	}

	// Sender-based message logging: in the log recovery mode every
	// degree-1 rank is a logging destination on every worker, and is
	// itself responsible for persisting its replay state with each
	// checkpoint wave. Same rule as the in-process launcher and the
	// coordinator — logRankVector keeps the three in lockstep.
	logDests := logRankVector(cfg, layout)

	proc := mpi.NewProc(nw, cfg.Proc)
	env := &Env{Rank: rank, Rep: rep, h: ws, restored: restored, restoredStep: restoredStep, store: store,
		logSelf: logDests != nil && logDests[rank]}
	if cfg.ReplayWave >= 0 {
		// Localized-replay relaunch: this worker alone rolls back, to its
		// own newest checkpoint wave; the protocol state is restored below
		// once the replicated layer exists.
		if store == nil {
			return fail(fmt.Errorf("localized replay without a checkpoint store"))
		}
		b, err := store.Load(rank, cfg.ReplayWave)
		if err != nil {
			_ = cc.send(ctlMsg{Op: opExhausted, Rank: rank})
			return workerExitExhausted
		}
		env.restored = b
		env.restoredStep = cfg.ReplayWave
	}
	var protocol mpi.Protocol
	var replayCollSeq uint64
	if cfg.Protocol == Native {
		protocol = mpi.NewNative(proc)
	} else {
		rp := core.NewReplicated(proc, layout, cfg.Protocol.coreMode(), nil, core.Options{LogDests: logDests})
		if cfg.ReplayWave >= 0 {
			// Restore the sequence counters and buffered messages the
			// checkpoint captured, then announce the relaunch in-band so
			// the survivors replay their sender logs. A state that fails
			// to decode fails CLOSED: report exhaustion and let the
			// coordinator take the global-rollback rung.
			state, err := store.LoadLog(rank, cfg.ReplayWave)
			if err == nil {
				replayCollSeq, err = rp.RestoreReplayState(state)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "worker %d: replay state unusable: %v\n", cfg.Proc, err)
				_ = cc.send(ctlMsg{Op: opExhausted, Rank: rank})
				return workerExitExhausted
			}
			rp.BroadcastRecovered(cfg.Proc)
		}
		env.proto = rp
		protocol = rp
	}
	env.World = mpi.NewWorld(proc, protocol, cfg.Ranks)
	if cfg.ReplayWave >= 0 {
		env.World.SetCollSeq(replayCollSeq)
	}

	// Run the application, catching the library's typed unwinds.
	exhaustedRank := -1
	res, appErr := func() (res any, err error) {
		defer func() {
			if r := recover(); r != nil {
				if rk, ok := mpi.ErrExhausted(r); ok {
					exhaustedRank = rk
				} else if _, ok := mpi.ErrCrashed(r); ok {
					err = fmt.Errorf("worker observed its own crash flag")
				} else {
					err = fmt.Errorf("panic: %v", r)
				}
			}
		}()
		return app(env)
	}()
	if exhaustedRank >= 0 {
		// Second rung of the recovery ladder: report and exit with the
		// exhaustion code; the coordinator tears the epoch down and
		// respawns everyone from the latest committed wave.
		_ = cc.send(ctlMsg{Op: opExhausted, Rank: exhaustedRank})
		return workerExitExhausted
	}

	doneMsg := ctlMsg{Op: opDone, Proc: int(cfg.Proc)}
	if wr, ok := res.(WorkerResult); ok {
		doneMsg.Checksum = wr.Checksum
		doneMsg.Residual = wr.Residual
		doneMsg.Iterations = wr.Iterations
	}
	if appErr != nil {
		doneMsg.Err = appErr.Error()
	}
	if err := cc.send(doneMsg); err != nil {
		return fail(fmt.Errorf("report result: %w", err))
	}

	// Drain until the coordinator's shutdown: a peer may still need this
	// engine's cooperation (rendezvous handshakes, acks) to finish — the
	// distributed counterpart of runState.drain.
	eng := proc.Engine()
	ep := eng.Endpoint()
	for {
		select {
		case <-shutdown:
			eng.Progress()
			return 0
		default:
		}
		eng.Progress()
		ep.WaitActivity(200 * time.Microsecond)
	}
}
