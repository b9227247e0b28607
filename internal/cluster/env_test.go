package cluster

import "testing"

// TestEnvAccessors pins the typed accessor semantics the worker contract
// decodes through: flag arming, required vs optional ints, list parsing,
// and the loud failure on undeclared names.
func TestEnvAccessors(t *testing.T) {
	t.Setenv(EnvWorker, "1")
	if !EnvFlag(EnvWorker) {
		t.Fatalf("EnvFlag(%s) = false with value 1", EnvWorker)
	}
	t.Setenv(EnvWorker, "true")
	if EnvFlag(EnvWorker) {
		t.Fatalf("EnvFlag(%s) = true with value %q: only \"1\" arms a flag", EnvWorker, "true")
	}

	t.Setenv(EnvRanks, "8")
	if v, err := EnvInt(EnvRanks); err != nil || v != 8 {
		t.Fatalf("EnvInt(%s) = %d, %v; want 8", EnvRanks, v, err)
	}
	t.Setenv(EnvRanks, "eight")
	if _, err := EnvInt(EnvRanks); err == nil {
		t.Fatalf("EnvInt(%s) accepted a non-integer", EnvRanks)
	}

	// The optional forms are read through the lookup the worker decodes
	// its seat with.
	env := envLookup(rawEnv)
	t.Setenv(EnvReplay, "")
	if v, err := env.numOr(EnvReplay, -1); err != nil || v != -1 {
		t.Fatalf("numOr(%s, -1) = %d, %v; want the default", EnvReplay, v, err)
	}
	t.Setenv(EnvReplay, "3")
	if v, err := env.numOr(EnvReplay, -1); err != nil || v != 3 {
		t.Fatalf("numOr(%s, -1) = %d, %v; want 3", EnvReplay, v, err)
	}

	t.Setenv(EnvDead, "")
	if v, err := env.nums(EnvDead); err != nil || v != nil {
		t.Fatalf("nums(%s) on empty = %v, %v; want nil", EnvDead, v, err)
	}
	t.Setenv(EnvDead, "2,5,7")
	v, err := env.nums(EnvDead)
	if err != nil || len(v) != 3 || v[0] != 2 || v[1] != 5 || v[2] != 7 {
		t.Fatalf("nums(%s) = %v, %v; want [2 5 7]", EnvDead, v, err)
	}
	t.Setenv(EnvDead, "2,x")
	if _, err := env.nums(EnvDead); err == nil {
		t.Fatalf("nums(%s) accepted a malformed entry", EnvDead)
	}
}

// TestEnvUndeclaredPanics locks the chokepoint: reading a variable that
// is not in the contract table must fail loudly, not return "".
func TestEnvUndeclaredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("EnvString on an undeclared name did not panic")
		}
	}()
	EnvString("SDR_DIST_NOT_IN_TABLE")
}

// TestEnvContractCoversConsts keeps the table and the const block from
// drifting: every declared Env* name must have a spec row.
func TestEnvContractCoversConsts(t *testing.T) {
	for _, name := range []string{
		EnvWorker, EnvRegistry, EnvProc, EnvRanks, EnvRepl, EnvDegrees,
		EnvProtocol, EnvCkptDir, EnvWave, EnvEpoch, EnvKills, EnvRecovery,
		EnvReplay, EnvDead, EnvApp, EnvScale,
	} {
		if _, ok := envContract[name]; !ok {
			t.Errorf("env contract table is missing %s", name)
		}
	}
}
