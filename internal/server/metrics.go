package server

import (
	"strconv"

	"relest/internal/obs"
)

// Metric names for the daemon itself, alongside the estimator's relest_*
// families in the shared collector. Label values go through obs.L at the
// call site.
const (
	// mRequests counts finished estimation requests, labelled by HTTP
	// status code.
	mRequests = "relestd_requests_total"
	// mQueueDepth gauges the number of estimation tasks waiting or
	// running.
	mQueueDepth = "relestd_queue_depth"
	// mShed counts requests rejected with 429 because the queue was full.
	mShed = "relestd_shed_total"
	// mCancelled counts estimation requests aborted by context
	// cancellation or expiry (client gone or request timeout).
	mCancelled = "relestd_cancelled_total"
	// mPanics counts estimation tasks that panicked and were isolated.
	mPanics = "relestd_panics_total"
	// mLatency is the request latency histogram in seconds, labelled by
	// estimation mode.
	mLatency = "relestd_request_seconds"

	// mEvictions counts static synopses whose samples were dropped under
	// the synopsis byte budget.
	mEvictions = "relestd_synopsis_evictions_total"
	// mRebuilds counts transparent rebuilds of evicted synopses on their
	// next reference.
	mRebuilds = "relestd_synopsis_rebuilds_total"
	// mTenantShed counts requests rejected with 429 because the tenant's
	// queue slots were exhausted.
	mTenantShed = "relestd_tenant_shed_total"
	// mQuotaRejected counts synopsis creations rejected with 413 because
	// they would exceed the tenant's synopsis byte quota.
	mQuotaRejected = "relestd_quota_rejected_total"
	// mBatch counts batched estimate requests (each admitted once,
	// regardless of how many queries it carries).
	mBatch = "relestd_batch_requests_total"
	// mBatchQueries counts individual queries inside batch requests,
	// labelled by per-item HTTP status.
	mBatchQueries = "relestd_batch_queries_total"
	// mSnapshotSaves / mSnapshotRestores count snapshot round-trips.
	mSnapshotSaves    = "relestd_snapshot_saves_total"
	mSnapshotRestores = "relestd_snapshot_restores_total"
	// mWALEvents counts stream events appended to the append-only log;
	// mWALReplayed counts events (including logged synopsis creations)
	// replayed into synopses at restore.
	mWALEvents   = "relestd_wal_events_total"
	mWALReplayed = "relestd_wal_replayed_total"
	// mWALTorn counts restores that found (and truncated away) a torn
	// trailing WAL record — the signature of a crash between a record's
	// write and its fsync; every acknowledged event before it replayed.
	mWALTorn = "relestd_wal_torn_total"
	// mWALSkipped counts WAL events dropped at restore because their
	// synopsis could not be made resident (e.g. its base relations were
	// never snapshotted); nonzero means acknowledged updates were lost.
	mWALSkipped = "relestd_wal_skipped_total"
	// mStreamRefused counts stream events refused with 409, by reason.
	mStreamRefused = "relestd_stream_refused_total"

	// Storage-footprint gauges, shared names with the estimator and
	// cmd/relest (see obs.MetricRelationBytes / obs.MetricSynopsisBytes).
	mRelationBytes = obs.MetricRelationBytes
	mSynopsisBytes = obs.MetricSynopsisBytes
)

// reqMetric labels the request counter with the HTTP status code.
func reqMetric(status int) string {
	return obs.L(mRequests, "code", strconv.Itoa(status))
}

// refusedMetric labels the refused-event counter with the one reason
// Incremental refuses an event of the given op for: an insert the sample
// holds is a live duplicate, a delete it does not hold is absent.
func refusedMetric(op string) string {
	reason := "absent_delete"
	if op == "insert" {
		reason = "live_duplicate"
	}
	return obs.L(mStreamRefused, "reason", reason)
}

// latencyMetric labels the latency histogram with the estimation mode.
func latencyMetric(mode string) string {
	return obs.L(mLatency, "mode", mode)
}

// batchQueryMetric labels the per-item batch counter with the item's
// HTTP status code.
func batchQueryMetric(status int) string {
	return obs.L(mBatchQueries, "code", strconv.Itoa(status))
}
