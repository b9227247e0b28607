// Package repro is a Go reproduction of "Replication for Send-Deterministic
// MPI HPC Applications" (Lefray, Ropars, Schiper — FTXS/HPDC 2013): the
// SDR-MPI replication protocol, an MPI-like messaging substrate to host it,
// the comparison protocols (mirror, leader-based), the paper's workloads,
// and a benchmark harness regenerating every table and figure of the
// evaluation.
//
// # Layer stack
//
// The stack mirrors the paper's Figure 5 (Open MPI's BTL → PML →
// vProtocol → OMPI decomposition); each layer only assumes the one below:
//
//	internal/transport  byte-transfer layer: reliable FIFO ordered-pair
//	                    channels with per-source sharded inbound queues,
//	                    pooled zero-copy buffers/envelopes, one socket
//	                    wire (peer-to-peer TCP between worker processes,
//	                    or every rank behind one loopback listener),
//	                    delay models and fail-stop injection
//	internal/mpi        PML matching/progress engine and the MPI surface
//	                    apps call: requests, communicators, collectives
//	internal/core       the vProtocol interception point: SDR-MPI with
//	                    coalesced acknowledgements, the mirror and leader
//	                    baselines, failure handling, recovery, SDC
//	internal/cluster    the launcher: one epoch loop runs a seat per layout
//	                    slot — a goroutine process, or in distributed mode
//	                    a real OS process behind a rendezvous registry —
//	                    orchestrates crash/recovery schedules, and restarts
//	                    the run from the latest committed checkpoint wave
//	                    when a rank loses its last replica
//	internal/obs        observability: counter/gauge registry with
//	                    Prometheus text exposition, per-worker /healthz +
//	                    /metrics HTTP endpoints, the recovery-ladder trace
//	                    event stream, and the end-of-run RunStats document
//	internal/bench      the evaluation: NetPipe, NAS/wildcard tables,
//	                    ablations (mirror, leader, degree, eager, coalesce,
//	                    ckpt)
//
// # Recovery ladder
//
// Failure handling has three rungs, matching the paper's combined
// replication + infrequent-coordinated-checkpointing model (§1, §4.1)
// extended with the hybrid mode send-determinism enables. (1)
// Substitution: the loss of one replica of a rank is absorbed in place —
// the lowest-index survivor becomes the substitute and re-sends retained
// unacknowledged messages. (2) Localized replay
// (cluster.Config.RecoveryMode = log, sdrun -recovery=log,
// SDR_DIST_RECOVERY): every process copies its sends to degree-1 ranks
// into a per-sender message log (core/msglog.go), truncated by the
// receiver's checkpoint acknowledgements; the rank itself persists a
// replay state — sequence counters, world collective counter, buffered
// undelivered messages — beside each checkpoint (ckpt.SaveLog, pruned
// with the wave). When such a rank dies, it ALONE is relaunched from its
// newest checkpoint + replay state while the survivors park and re-send
// from their logs; send-determinism makes the relaunch's regenerated
// messages identical, so the sequencer dedup absorbs every overlap and
// no survivor ever rolls back. The relaunch's recovery notification
// carries its restored receive frontier: a sender replica in a world that
// lags behind counts the sends below it as acknowledged, since the
// relaunch will not consume — hence not acknowledge — them a second time.
// A missing or corrupt replay state fails
// closed into rung 3 — the codec never lets garbage reach the
// application. (3) Global rollback: the loss of ALL replicas of a
// non-logging rank raises the typed mpi.ReplicationExhausted signal
// through the crash-sentinel unwind path; cluster.Run then tears the
// epoch down and — when Config.CheckpointDir is set — restarts every
// process from the latest committed checkpoint wave (internal/ckpt
// stamps a wave with a coordinated-commit marker only after every rank's
// writer replica has saved, so a half-written wave is never chosen, and
// seals every checkpoint and replay-state file with a CRC-32C footer that
// is checked before a restart is seeded from it) and re-executes to a
// fault-free-identical result. The ablation-ckpt
// experiment quantifies the checkpoint-interval vs. re-executed-work
// trade-off, ablation-recovery compares rungs 2 and 3 on the same kill
// schedule; sdrbench -exp rollback and -exp replay narrate the scenarios.
//
// # Partial replication
//
// The paper's §5 outlook — replicate only the ranks whose loss is
// expensive — is a first-class layout, not a launch trick. core.Layout
// carries a per-rank replication vector (core.NewLayout(n, r, degrees),
// each degree in [1, r]); the physical-ID space is dense, Σ degrees
// processes in a world-major enumeration that reduces to the uniform
// rep·n + rank mapping when every degree equals r. A rank absent from a
// world is served by its lowest replica through the same substitution
// bookkeeping that absorbs failures, set up at construction — no phantom
// processes exist at any layer. Config.UnreplicatedRanks/Degrees select
// it in-process, and the same Config fields (DistConfig embeds Config;
// sdrun -unreplicated / -degrees) select it distributed, where exactly
// Σ degrees worker OS processes are spawned and SDR_DIST_DEGREES ships
// the vector to each worker. The failure ladder shortens accordingly: an unreplicated
// rank's death has no substitution rung and escalates straight to the
// rollback restart (sdrbench -exp partial narrates it) — unless the log
// recovery mode is armed, in which case the localized-replay rung
// catches it first (see Recovery ladder above). The ablation-partial
// experiment and BenchmarkPartialReplication measure wall-clock overhead
// and message counts as a function of the replicated fraction — the
// O(q·r) protocol cost is paid only where r > 1.
//
// # Distributed mode
//
// sdrun -distributed executes the same stack as r·n real OS worker
// processes. A rendezvous registry in the
// coordinator hands out the ProcID → host:port world table once every
// worker has registered its transport.PeerWire listener; each worker then
// dials its peers directly (per-pair FIFO over TCP, bounded dial budget,
// fail-stop drops to dead peers). The registry connection doubles as
// control plane and health channel: liveness pings, checkpoint-save
// notices (the registry stamps a wave's coordinated-commit marker once
// every rank's writer reported), kill-boundary reports (-kill becomes a
// real SIGKILL delivered by the coordinator at the exact step boundary),
// failure broadcasts (the paper's external detector, injected in-band by
// each worker), and shutdown. Replication exhaustion makes workers exit
// with a distinct code; the coordinator tears the epoch down and respawns
// every worker from the latest committed wave in the shared internal/ckpt
// store — cluster.Run's recovery ladder, run by the same epoch loop over
// OS-process seats instead of goroutine seats, with results identical to a
// fault-free in-process run. Under
// SDR_DIST_RECOVERY=log a logging-enabled rank's death instead respawns
// only that worker (SDR_DIST_REPLAY carries its restore wave) behind the
// registry's revive/ack rejoin flow, with the survivors kept alive. The
// env contract (SDR_DIST_*) is documented on the cluster package's Env*
// constants.
//
// # Observability
//
// internal/obs gives the stack a production-shaped seam with nothing but
// the standard library. Every layer counts what it does into obs.Default —
// a process-wide registry of monotonic counters and gauges named by layer
// (sdr_core_* app/ack/substitution/replay counts, sdr_transport_* bytes
// and pool hit rates, sdr_ckpt_* waves saved and committed, sdr_cluster_*
// the launchers' epoch/restart/replay series and the coordinator's health
// kills and rejoin timeouts) and rendered in Prometheus text exposition
// format. In distributed mode every worker serves GET /healthz (a JSON
// liveness document: status, pid, uptime, rank/replica labels) and GET
// /metrics on an ephemeral loopback port; the worker publishes that
// address in its rendezvous hello, the coordinator logs "metrics at
// http://…" the moment the worker is ready, and any operator, test, or CI
// step can scrape a live run mid-flight. At shutdown the coordinator
// scrapes every surviving worker and folds the result into an obs.RunStats
// document (JSON schema "sdr.runstats/1": protocol, layout, restart and
// replay waves, per-epoch timings, per-worker metric snapshots, the
// coordinator's own sdr_cluster_* series) — printed as a structured block
// and written machine-readable via sdrun -stats-json. Recovery itself is
// traced, not just counted: the coordinator and the in-process launcher
// emit span-style events (obs.Trace; stages park, kill, detect,
// substitute, replay, rollback, recovered, match) so one failure reads
// end-to-end as kill → detect → replay → match with wall-clock offsets;
// sdrun prints the chain after the MATCH verdict and sdrbench's scenario
// narrations are rendered from the same live event stream.
//
// # Fast path
//
// Seven mechanisms keep the message path hardware-bound rather than
// allocation-, syscall-, copy- and ack-bound: transport buffer/envelope
// pooling with explicit ownership hand-off (see internal/transport/pool.go
// for the ownership rules); zero-copy rendezvous on the socket wire — the
// engine posts the receive buffer as the exchange's landing buffer before
// its CTS leaves and the wire's frame reader reads the payload from the
// socket straight into it, the sender lends the application buffer to the
// wire for the one vectored write (Endpoint.SendLent), and the reader
// stages only small frames, in a small buffer (internal/transport/
// landing.go, codec.go; wires and paths that cannot do either fall back
// to one pooled copy through the same calls); the deferred ack gate (internal/core/retention.go:
// where Algorithm 1 completes a send request on its own acks, an eager
// send #k to a destination completes on the acks of send #k−1 to it, so a
// sender rarely parks for an ack — a rendezvous send keeps its own-ack
// gate, a payload is still retained until every alive replica of the
// destination rank confirmed it, and the worlds drift by at most one
// message per destination); receiver-side ack coalescing in the replication protocol
// (core.Options.NoAckCoalesce restores one discrete ack per message and
// replica; see internal/core/acks.go for the flush triggers); the
// batch-first wire API (staged frames flushed as net.Buffers vectored
// writes) with colocated shared-memory rings negotiated at rendezvous
// (internal/transport/batch.go, ring.go); dense per-(context, rank)
// sequencing on both protocol paths — flat counter slices and
// seq-indexed stash rings sized from core.Layout replace the seed's
// per-message map hashing and copy()-per-insert sorted stash
// (internal/core/sequencer.go) — and inbound queue shards sized to the
// world (next power of two ≥ peer count, clamped to [8, 64]) so 256
// senders don't contend on the 8 shards an 8-rank default assumed
// (internal/transport/network.go). BENCH_PR10.json records the 8–256-rank
// curve that change was measured on; the benchmark/ yardstick's
// wire-ring-128 workload tracks the wire at scale today.
//
// Entry points: cmd/sdrbench regenerates the paper's artifacts and
// narrates its failure scenarios by experiment id, cmd/sdrun runs one
// application in-process or as OS processes, examples/ holds small
// applications, and `go run ./benchmark` is the end-to-end yardstick a
// change is measured against. See README.md for the full tour.
package repro
