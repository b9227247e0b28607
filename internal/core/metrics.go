package core

import "repro/internal/obs"

// Protocol-core observability (sdr_core_*). Counters are pre-resolved into
// package vars at init, never looked up on a hot path. The per-message ones
// (app, ack, coalesced) are bumped through the process's own cells, which
// NewReplicated resolves (obs.Counter.Cell).
var (
	mAppMsgs = obs.Default.Counter("sdr_core_app_msgs_total",
		"application messages posted through Isend")
	mAckMsgs = obs.Default.Counter("sdr_core_ack_msgs_total",
		"acknowledgement wire messages emitted (discrete or batched)")
	mAcksCoalesced = obs.Default.Counter("sdr_core_acks_coalesced_total",
		"acknowledgement records carried inside batched KindAck messages")
	mSubstitutions = obs.Default.Counter("sdr_core_substitutions_total",
		"take-overs: this process became substitute for a dead replica")
	mReplayedMsgs = obs.Default.Counter("sdr_core_replayed_msgs_total",
		"messages re-sent to a recovered process (retention + sender log)")
	gMsglogBytes = obs.Default.Gauge("sdr_core_msglog_bytes",
		"payload bytes currently held in the sender-based message log")
	gSeqStashDepth = obs.Default.Gauge("sdr_core_seq_stash_depth",
		"out-of-order application messages held back by the sequencer")
)
