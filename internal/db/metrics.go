package db

import "sync/atomic"

// Metrics holds the database's monotonic counters — the one place each
// is declared. The metric tag is its registry name; DB.Metrics and
// DB.RegisterMetrics are both derived from this struct (see
// telemetry.CounterSet).
type Metrics struct {
	TxnsStarted       atomic.Uint64 `metric:"txns_started"`
	TxnsCommitted     atomic.Uint64 `metric:"txns_committed"`
	TxnsAborted       atomic.Uint64 `metric:"txns_aborted"`
	Conflicts         atomic.Uint64 `metric:"conflicts"`
	TxnReads          atomic.Uint64 `metric:"txn_reads"`
	TxnWrites         atomic.Uint64 `metric:"txn_writes"`
	SingleGets        atomic.Uint64 `metric:"single_gets"`
	InvalidationsSent atomic.Uint64 `metric:"invalidations_sent"`
	Snapshots         atomic.Uint64 `metric:"snapshots"`
	SnapshotFailures  atomic.Uint64 `metric:"snapshot_failures"`
}

// MetricsSnapshot is a point-in-time copy of Metrics, plus the WAL's own
// counters for databases opened with Recover (zero otherwise). The WAL
// numbers are what make group commit observable: WALBatches < WALRecords
// means concurrent commits shared writes, and under Sync the fsyncs are
// amortized the same way.
type MetricsSnapshot struct {
	TxnsStarted       uint64
	TxnsCommitted     uint64
	TxnsAborted       uint64
	Conflicts         uint64
	TxnReads          uint64
	TxnWrites         uint64
	SingleGets        uint64
	InvalidationsSent uint64
	Snapshots         uint64
	SnapshotFailures  uint64
	WALRecords        uint64
	WALBatches        uint64
	WALFsyncs         uint64
	WALBytes          uint64
	WALRotations      uint64
	WALExtends        uint64
	// Replication counters (see repl.go): records applied from the
	// primary (standby), connected acknowledged replicas (primary), and
	// the version-counter lag of the slowest connected replica.
	ReplApplied  uint64
	ReplReplicas uint64
	ReplLag      uint64
}

// Metrics returns a snapshot of the database counters.
func (d *DB) Metrics() (out MetricsSnapshot) {
	d.counters.Fill(&out)
	w := d.walMetrics()
	out.WALRecords = w.Records
	out.WALBatches = w.Batches
	out.WALFsyncs = w.Fsyncs
	out.WALBytes = w.Bytes
	out.WALRotations = w.Rotations
	out.WALExtends = w.Extends
	st := d.ReplStatusNow()
	out.ReplApplied = st.Applied
	out.ReplReplicas = uint64(st.Replicas)
	out.ReplLag = st.Lag
	return out
}
