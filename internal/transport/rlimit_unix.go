//go:build unix

package transport

import (
	"fmt"
	"syscall"
)

// EnsureFileLimit validates — and if possible raises — the process's open
// file descriptor limit to cover budget descriptors, returning the
// effective soft limit. Both consumers of large fd budgets sit on this
// package's sockets: the distributed coordinator (pipes plus registry
// connections for every spawned worker) and the benchmark's in-process
// ring mesh (one listener, peer connections and ring files per simulated
// rank), so the raiser lives here where both can reach it.
//
// The soft limit is lifted toward the hard limit when short; a hard limit
// below the budget is reported as an error naming both numbers, so a
// 256-rank launch fails with an actionable message instead of a mid-run
// storm of EMFILE dial and accept failures.
func EnsureFileLimit(budget uint64) (uint64, error) {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		return 0, fmt.Errorf("transport: reading RLIMIT_NOFILE: %w", err)
	}
	if rl.Cur >= budget {
		return rl.Cur, nil
	}
	if rl.Max < budget {
		return rl.Cur, fmt.Errorf(
			"transport: fd budget %d exceeds the hard RLIMIT_NOFILE %d (soft %d); raise the hard limit (ulimit -Hn) or shrink the world",
			budget, rl.Max, rl.Cur)
	}
	want := rl
	want.Cur = budget
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &want); err != nil {
		return rl.Cur, fmt.Errorf(
			"transport: raising RLIMIT_NOFILE soft limit %d -> %d (hard %d): %w",
			rl.Cur, budget, rl.Max, err)
	}
	return budget, nil
}
