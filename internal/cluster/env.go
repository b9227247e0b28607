package cluster

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/transport"
)

// This file is the SDR_* environment contract: the one place in the
// stack that declares every variable the distributed launcher and the
// hidden worker mode exchange, and the one place allowed to read them
// from the raw environment. Everything else goes through the typed
// accessors below — the sdrlint envcontract analyzer enforces it, after
// PRs 3–5 each grew the contract through stray os.Getenv calls that
// left variables undocumented and unvalidated.
//
// The distributed launcher re-execs its own binary with these variables
// set; the binary detects DistWorkerActive and enters the hidden worker
// mode instead of parsing flags.
const (
	// EnvWorker selects worker mode ("1").
	EnvWorker = "SDR_DIST_WORKER"
	// EnvRegistry is the rendezvous registry address (host:port).
	EnvRegistry = "SDR_DIST_REGISTRY"
	// EnvProc is this worker's physical process ID (0..r·n-1).
	EnvProc = "SDR_DIST_PROC"
	// EnvRanks is the logical world size n.
	EnvRanks = "SDR_DIST_RANKS"
	// EnvRepl is the maximum replication degree r.
	EnvRepl = "SDR_DIST_R"
	// EnvDegrees is the comma-separated per-rank replication degree
	// vector ("2,1,2,1"); empty means the uniform degree r for every
	// rank. Workers rebuild the same dense degree-aware layout from it.
	EnvDegrees = "SDR_DIST_DEGREES"
	// EnvProtocol is the protocol name (native | sdr | mirror | leader).
	EnvProtocol = "SDR_DIST_PROTOCOL"
	// EnvCkptDir is the shared checkpoint directory (may be empty).
	EnvCkptDir = "SDR_DIST_CKPT"
	// EnvWave is the committed checkpoint wave to restore from (-1 for a
	// fresh start).
	EnvWave = "SDR_DIST_WAVE"
	// EnvEpoch is the restart epoch index (0 for the first execution).
	EnvEpoch = "SDR_DIST_EPOCH"
	// EnvKills is the comma-separated list of step numbers at which THIS
	// worker must report a kill boundary and block awaiting SIGKILL.
	EnvKills = "SDR_DIST_KILLS"
	// EnvRecovery is the recovery mode above the substitution rung:
	// "rollback" (or empty) for global rollback only, "log" to arm
	// sender-based message logging for every degree-1 rank and the
	// localized-replay rung it enables (see RecoveryMode).
	EnvRecovery = "SDR_DIST_RECOVERY"
	// EnvReplay marks a localized-replay relaunch: the checkpoint wave
	// THIS worker must restore (app state + replay state) before
	// announcing itself in-band; -1 for a normal start.
	EnvReplay = "SDR_DIST_REPLAY"
	// EnvDead is the comma-separated list of procs already dead when THIS
	// worker was (re)spawned mid-epoch; empty normally.
	EnvDead = "SDR_DIST_DEAD"
	// EnvApp is the application name a worker instantiates — the
	// app-selection side of the contract, set by cmd/sdrun's coordinator
	// through DistConfig.WorkerEnv.
	EnvApp = "SDR_DIST_APP"
	// EnvScale is the application scale knob paired with EnvApp.
	EnvScale = "SDR_DIST_SCALE"
	// EnvRing is the coordinator-created per-epoch directory for the
	// colocated shared-memory ring transport (one mmap'd ring file per
	// ordered pair of same-host workers). Empty disables rings and every
	// pair uses loopback TCP. The directory is scoped to one epoch: a
	// rollback respawns workers against a fresh directory, so no torn
	// ring stream survives an incarnation change.
	EnvRing = "SDR_DIST_RING"
)

// envKind types one contract variable for documentation and accessor
// selection.
type envKind int

const (
	envString  envKind = iota // free-form string (address, directory, name)
	envFlag                   // boolean, "1" when armed
	envInt                    // required integer
	envIntOpt                 // optional integer with a default
	envIntList                // optional comma-separated integer list
)

// envSpec is one row of the contract table.
type envSpec struct {
	kind envKind
	doc  string
}

// envContract is the table itself: every SDR_* variable the stack reads.
// rawEnv panics on names missing from it, so an undeclared read fails
// loudly even if it slips past sdrlint.
var envContract = map[string]envSpec{
	EnvWorker:   {envFlag, "selects the hidden worker mode"},
	EnvRegistry: {envString, "rendezvous registry address host:port"},
	EnvProc:     {envInt, "physical process ID of this worker"},
	EnvRanks:    {envInt, "logical world size n"},
	EnvRepl:     {envInt, "maximum replication degree r"},
	EnvDegrees:  {envIntList, "per-rank replication degree vector"},
	EnvProtocol: {envString, "protocol name: native|sdr|mirror|leader"},
	EnvCkptDir:  {envString, "shared checkpoint directory"},
	EnvWave:     {envInt, "committed wave to restore, -1 fresh"},
	EnvEpoch:    {envInt, "restart epoch index"},
	EnvKills:    {envIntList, "step numbers to park at awaiting SIGKILL"},
	EnvRecovery: {envString, "recovery mode: rollback|log"},
	EnvReplay:   {envIntOpt, "localized-replay restore wave, unset normally"},
	EnvDead:     {envIntList, "procs already dead at spawn time"},
	EnvApp:      {envString, "application name (cmd/sdrun extension)"},
	EnvScale:    {envInt, "application scale knob (cmd/sdrun extension)"},
	EnvRing:     {envString, "per-epoch colocated ring directory, empty disables"},
}

// rawEnv is the single chokepoint over os.Getenv for contract variables.
func rawEnv(name string) string {
	if _, ok := envContract[name]; !ok {
		panic(fmt.Sprintf("cluster: env var %s is not declared in the contract table", name))
	}
	return os.Getenv(name)
}

// EnvString returns the raw value of a declared string variable.
func EnvString(name string) string { return rawEnv(name) }

// EnvFlag reports whether a declared boolean variable is armed ("1").
func EnvFlag(name string) bool { return rawEnv(name) == "1" }

// EnvInt parses a required integer variable; an unset or malformed
// value is an error naming the variable.
func EnvInt(name string) (int, error) { return envLookup(rawEnv).num(name) }

// envLookup reads contract variables from some source: the process
// environment (rawEnv) for a worker, a decoded environ() list in tests.
type envLookup func(name string) string

func (get envLookup) num(name string) (int, error) {
	raw := get(name)
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("cluster: bad %s=%q: %w", name, raw, err)
	}
	return v, nil
}

// numOr parses an optional integer variable, returning def when the
// variable is unset (empty).
func (get envLookup) numOr(name string, def int) (int, error) {
	if get(name) == "" {
		return def, nil
	}
	return get.num(name)
}

// nums parses an optional comma-separated integer list; unset means nil.
func (get envLookup) nums(name string) ([]int, error) {
	s := get(name)
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("cluster: bad %s entry %q", name, p)
		}
		out = append(out, v)
	}
	return out, nil
}

// environ encodes a worker's seat as the env contract: the inverse of
// WorkerConfigFromEnv. Only the run spec's cross-process fields travel;
// the coordinator rejects the in-process-only ones before spawning.
func (c WorkerConfig) environ() []string {
	itoa := strconv.Itoa
	return []string{
		EnvWorker + "=1",
		EnvRegistry + "=" + c.Registry,
		EnvProc + "=" + itoa(int(c.Proc)),
		EnvRanks + "=" + itoa(c.Ranks),
		EnvRepl + "=" + itoa(c.Replication),
		EnvDegrees + "=" + joinInts(c.Degrees),
		EnvProtocol + "=" + string(c.Protocol),
		EnvCkptDir + "=" + c.CheckpointDir,
		EnvWave + "=" + itoa(c.RestartWave),
		EnvEpoch + "=" + itoa(c.Epoch),
		EnvKills + "=" + joinInts(c.KillSteps),
		EnvRecovery + "=" + string(c.RecoveryMode),
		EnvReplay + "=" + itoa(c.ReplayWave),
		EnvDead + "=" + joinInts(c.DeadProcs),
		EnvRing + "=" + c.RingDir,
	}
}

func joinInts(vs []int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

// WorkerConfigFromEnv decodes the worker env contract through the typed
// accessors above — the single sanctioned path to the raw environment.
func WorkerConfigFromEnv() (WorkerConfig, error) { return decodeWorkerEnv(rawEnv) }

func decodeWorkerEnv(get envLookup) (WorkerConfig, error) {
	var cfg WorkerConfig
	var err error
	var v int
	if v, err = get.num(EnvProc); err != nil {
		return cfg, err
	}
	cfg.Proc = transport.ProcID(v)
	if cfg.Ranks, err = get.num(EnvRanks); err != nil {
		return cfg, err
	}
	if cfg.Replication, err = get.num(EnvRepl); err != nil {
		return cfg, err
	}
	if cfg.RestartWave, err = get.num(EnvWave); err != nil {
		return cfg, err
	}
	if cfg.Epoch, err = get.num(EnvEpoch); err != nil {
		return cfg, err
	}
	// Validate the string-typed env values at decode time: a typo'd
	// protocol or recovery mode must fail fast with the env var named,
	// not silently select a default behavior deep in the stack.
	switch p := Protocol(get(EnvProtocol)); p {
	case Native, SDR, Mirror, Leader:
		cfg.Protocol = p
	default:
		return cfg, fmt.Errorf("cluster: bad %s=%q (want native|sdr|mirror|leader)",
			EnvProtocol, string(p))
	}
	cfg.Registry = get(EnvRegistry)
	cfg.CheckpointDir = get(EnvCkptDir)
	switch m := RecoveryMode(get(EnvRecovery)); m {
	case "", RecoveryRollback, RecoveryLog:
		cfg.RecoveryMode = m
	default:
		return cfg, fmt.Errorf("cluster: bad %s=%q (want rollback|log)",
			EnvRecovery, string(m))
	}
	if cfg.ReplayWave, err = get.numOr(EnvReplay, -1); err != nil {
		return cfg, err
	}
	if cfg.DeadProcs, err = get.nums(EnvDead); err != nil {
		return cfg, err
	}
	if cfg.KillSteps, err = get.nums(EnvKills); err != nil {
		return cfg, err
	}
	if cfg.Degrees, err = get.nums(EnvDegrees); err != nil {
		return cfg, err
	}
	cfg.RingDir = get(EnvRing)
	if cfg.Registry == "" {
		return cfg, fmt.Errorf("cluster: %s not set", EnvRegistry)
	}
	return cfg, nil
}
