package main

import (
	"errors"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestKillRejectsMalformedValues: a -kill value that is not exactly
// rank:rep:step with non-negative fields exits 2, naming the flag, before
// anything runs — under both launchers.
func TestKillRejectsMalformedValues(t *testing.T) {
	bin := buildSdrun(t)
	for _, v := range []string{"1:0:3,1:1:3", "1:0:12x", "1:0:-4"} {
		for _, mode := range [][]string{nil, {"-distributed"}} {
			args := append(append([]string{}, mode...), "-app", "lu", "-ranks", "2", "-protocol", "sdr", "-kill", v)
			out, err := runSdrun(t, bin, time.Minute, args...)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Errorf("sdrun %v: %v, want exit status 2\n%s", args, err, out)
				continue
			}
			if want := `invalid value "` + v + `" for flag -kill`; !strings.Contains(out, want) {
				t.Errorf("sdrun %v: output lacks %q:\n%s", args, want, out)
			}
		}
	}
}
