// Taskfarm: the counter-example. The paper (§2.1) notes that master-worker
// applications are the main class that is NOT send-deterministic: the
// master hands the next task to whichever worker reports first, so its
// send sequence depends on message arrival order. This program runs such a
// task farm under dual replication with send tracing and shows both halves
// of the story:
//
//   - the aggregate result is identical on both master replicas (the
//     violation is invisible to output checks), and
//   - the send-determinism checker flags the divergence in the masters'
//     send sequences — the reason SDR-MPI's guarantees do not extend to
//     this class of application.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
)

func main() {
	report := cluster.Run(cluster.Config{
		Ranks:    4,
		Protocol: cluster.SDR,
		Timeout:  30 * time.Second,
		// Record every replica's send sequence for the comparison.
		TraceSends: true,
		KeepEvents: 256,
	}, func(env *cluster.Env) (any, error) {
		rep := env.Rep
		return apps.MasterWorker(env.World, apps.MWParams{
			Tasks:          12,
			PerWorkerQuota: 4,
			Work:           200,
			// Per-world timing skew: on a real cluster this is hardware
			// jitter; here it is made deterministic so the demo always
			// shows the divergence.
			ExtraDelay: func(task int) int { return ((task + rep*2) % 3) * 400 },
		}), nil
	})
	if err := report.FirstError(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("task farm: 12 tasks, 3 workers, dual replication")
	for _, p := range report.Procs {
		res := p.Result.(apps.Result)
		role := "worker"
		if p.Rank == 0 {
			role = "master"
		}
		fmt.Printf("  rank %d replica %d (%s): tasks=%d checksum=%.6f\n",
			p.Rank, p.Rep, role, res.Iterations, res.Checksum)
	}

	// Compare each rank's replicas.
	fmt.Println("\nsend-determinism verdicts:")
	for rank := 0; rank < 4; rank++ {
		var recs []*cluster.Recorder
		for _, p := range report.Procs {
			if p.Rank == rank {
				recs = append(recs, report.Recorders[p.Proc])
			}
		}
		if err := cluster.CheckSendDeterminism(recs...); err != nil {
			fmt.Printf("  rank %d: VIOLATION — %v\n", rank, err)
		} else {
			fmt.Printf("  rank %d: send-deterministic\n", rank)
		}
	}
	fmt.Println("\nthe masters computed the same total through different task assignments;")
	fmt.Println("a crash at the wrong moment would leave the substitute unable to replay")
	fmt.Println("the dead master's sends — which is why SDR-MPI targets send-deterministic codes.")
}
