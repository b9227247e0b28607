package cluster

import "repro/internal/obs"

// Launcher-side observability (sdr_cluster_*). These live in the launching
// process's registry — Run's, or the coordinator's under RunDistributed,
// whose workers have their own sdr_core_* / sdr_transport_* series,
// scraped over /metrics at end of run. The epoch series move under both
// launchers; health kills and rejoin timeouts exist only across processes.
var (
	mRestarts = obs.Default.Counter("sdr_cluster_restarts_total",
		"global rollback restarts (epochs respawned from a committed wave)")
	mReplays = obs.Default.Counter("sdr_cluster_replays_total",
		"localized relaunches (single process respawned under RecoveryLog)")
	mHealthKills = obs.Default.Counter("sdr_cluster_health_kills_total",
		"workers killed by the liveness probe (control channel silent)")
	mRejoinTimeouts = obs.Default.Counter("sdr_cluster_rejoin_timeouts_total",
		"rejoin handshakes released by deadline with survivor acks missing")
	mEpochs = obs.Default.Counter("sdr_cluster_epochs_total",
		"epochs executed (first run + every restart)")
	gEpochMillis = obs.Default.Gauge("sdr_cluster_epoch_ms",
		"wall-clock duration of the most recent epoch, in milliseconds")
)
