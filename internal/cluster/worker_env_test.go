package cluster

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/transport"
)

// setWorkerEnv installs a minimal valid worker env contract, which each
// test then perturbs.
func setWorkerEnv(t *testing.T) {
	t.Helper()
	t.Setenv(EnvProc, "0")
	t.Setenv(EnvRanks, "2")
	t.Setenv(EnvRepl, "2")
	t.Setenv(EnvWave, "-1")
	t.Setenv(EnvEpoch, "0")
	t.Setenv(EnvProtocol, "sdr")
	t.Setenv(EnvRegistry, "127.0.0.1:1")
	t.Setenv(EnvRecovery, "")
}

func TestWorkerConfigFromEnvValidatesStrings(t *testing.T) {
	setWorkerEnv(t)
	cfg, err := WorkerConfigFromEnv()
	if err != nil {
		t.Fatalf("valid contract rejected: %v", err)
	}
	if cfg.Protocol != SDR || cfg.RecoveryMode != RecoveryMode("") {
		t.Fatalf("decoded %q/%q, want sdr/\"\"", cfg.Protocol, cfg.RecoveryMode)
	}

	// Every protocol and recovery spelling the contract defines decodes.
	for _, p := range []string{"native", "sdr", "mirror", "leader"} {
		t.Setenv(EnvProtocol, p)
		if _, err := WorkerConfigFromEnv(); err != nil {
			t.Errorf("protocol %q rejected: %v", p, err)
		}
	}
	t.Setenv(EnvProtocol, "sdr")
	for _, m := range []string{"", "rollback", "log"} {
		t.Setenv(EnvRecovery, m)
		if _, err := WorkerConfigFromEnv(); err != nil {
			t.Errorf("recovery %q rejected: %v", m, err)
		}
	}

	// A typo'd protocol must fail at decode time, naming the env var — not
	// silently select some default deep in the stack.
	t.Setenv(EnvProtocol, "srd")
	_, err = WorkerConfigFromEnv()
	if err == nil {
		t.Fatal("bogus protocol accepted")
	}
	if !strings.Contains(err.Error(), EnvProtocol) || !strings.Contains(err.Error(), "srd") {
		t.Errorf("error %q does not name %s and the bad value", err, EnvProtocol)
	}

	t.Setenv(EnvProtocol, "sdr")
	t.Setenv(EnvRecovery, "logg")
	_, err = WorkerConfigFromEnv()
	if err == nil {
		t.Fatal("bogus recovery mode accepted")
	}
	if !strings.Contains(err.Error(), EnvRecovery) || !strings.Contains(err.Error(), "logg") {
		t.Errorf("error %q does not name %s and the bad value", err, EnvRecovery)
	}
}

// environMap decodes an environ() list into a lookup table.
func environMap(t testing.TB, env []string) map[string]string {
	m := make(map[string]string, len(env))
	for _, kv := range env {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			t.Fatalf("environ entry %q has no '='", kv)
		}
		if _, dup := m[k]; dup {
			t.Fatalf("environ sets %s twice", k)
		}
		m[k] = v
	}
	return m
}

// TestWorkerEnvRoundTrip pins the env codec: every seat the coordinator
// can hand a worker decodes, through the real process environment, to the
// seat it encoded — and environ() sets every contract row a worker reads.
func TestWorkerEnvRoundTrip(t *testing.T) {
	seat := func(edit func(*WorkerConfig)) WorkerConfig {
		w := WorkerConfig{Proc: 3, Registry: "127.0.0.1:4000", RestartWave: -1, ReplayWave: -1}
		w.Ranks, w.Replication, w.Protocol = 4, 2, SDR
		edit(&w)
		return w
	}
	cases := map[string]WorkerConfig{
		"fresh":    seat(func(w *WorkerConfig) {}),
		"degrees":  seat(func(w *WorkerConfig) { w.Degrees = []int{2, 1, 2, 1} }),
		"kills":    seat(func(w *WorkerConfig) { w.KillSteps = []int{3, 9} }),
		"rollback": seat(func(w *WorkerConfig) { w.RestartWave, w.Epoch = 6, 2 }),
		"replay": seat(func(w *WorkerConfig) {
			w.RecoveryMode, w.CheckpointDir = RecoveryLog, "/ckpt"
			w.ReplayWave, w.DeadProcs = 0, []int{1, 5}
		}),
		"replay-late": seat(func(w *WorkerConfig) { w.RestartWave, w.ReplayWave = 3, 12 }),
		"ring":        seat(func(w *WorkerConfig) { w.RingDir = "/tmp/sdr-ring-1" }),
	}
	for _, p := range []Protocol{Native, SDR, Mirror, Leader} {
		cases["protocol-"+string(p)] = seat(func(w *WorkerConfig) { w.Protocol = p })
	}
	for name, m := range map[string]RecoveryMode{"unset": "", "rollback": RecoveryRollback, "log": RecoveryLog} {
		cases["recovery-"+name] = seat(func(w *WorkerConfig) { w.RecoveryMode = m })
	}
	for name, want := range cases {
		t.Run(name, func(t *testing.T) {
			env := want.environ()
			for k, v := range environMap(t, env) {
				t.Setenv(k, v)
			}
			got, err := WorkerConfigFromEnv()
			if err != nil {
				t.Fatalf("decode %v: %v", env, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip\n got %+v\nwant %+v", got, want)
			}
		})
	}

	set := environMap(t, cases["fresh"].environ())
	for name := range envContract {
		_, ok := set[name]
		if app := name == EnvApp || name == EnvScale; ok == app {
			t.Errorf("environ() sets %s: %v (the app rows belong to WorkerEnv)", name, ok)
		}
	}
	if len(envContract) != 17 {
		t.Errorf("env contract has %d rows, want 17", len(envContract))
	}
}

// FuzzWorkerEnvRoundTrip drives the codec with arbitrary seats: whatever
// environ() writes, decodeWorkerEnv reads back unchanged.
func FuzzWorkerEnvRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint8(0), 3, 4, 2, -1, 0, -1, "127.0.0.1:4000", "", "", []byte{2, 1}, []byte{3}, []byte{})
	f.Add(uint8(0), uint8(2), 0, 1, 1, 6, 2, 5, "h:1", "/ckpt", "/ring", []byte{}, []byte{9, 12}, []byte{0, 1})
	protocols := []Protocol{Native, SDR, Mirror, Leader}
	modes := []RecoveryMode{"", RecoveryRollback, RecoveryLog}
	ints := func(b []byte) []int {
		if len(b) == 0 {
			return nil
		}
		out := make([]int, len(b))
		for i, v := range b {
			out[i] = int(int8(v))
		}
		return out
	}
	f.Fuzz(func(t *testing.T, proto, mode uint8, proc, ranks, r, wave, epoch, replay int,
		registry, ckptDir, ringDir string, degrees, kills, dead []byte) {
		if registry == "" {
			t.Skip("a worker without a registry is rejected by design")
		}
		want := WorkerConfig{Proc: transport.ProcID(proc), Registry: registry, RestartWave: wave,
			Epoch: epoch, KillSteps: ints(kills), ReplayWave: replay, DeadProcs: ints(dead), RingDir: ringDir}
		want.Ranks, want.Replication, want.Degrees = ranks, r, ints(degrees)
		want.Protocol = protocols[int(proto)%len(protocols)]
		want.RecoveryMode = modes[int(mode)%len(modes)]
		want.CheckpointDir = ckptDir
		env := environMap(t, want.environ())
		got, err := decodeWorkerEnv(func(name string) string { return env[name] })
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip\n got %+v\nwant %+v", got, want)
		}
	})
}
