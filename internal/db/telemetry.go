package db

import (
	"tcache/internal/telemetry"
	"tcache/internal/wal"
)

// Telemetry is the database's latency instrumentation: histograms fed
// from CommitUpdate, the WAL group-commit flusher, and the standby's
// replication apply loop. Unlike the cache's (which guards a ~300ns warm
// hit), it is always on — a commit is microseconds at minimum and the
// cost is two clock reads and two atomic adds, zero allocations.
type Telemetry struct {
	// UpdateCommit observes successful CommitUpdate calls (ns),
	// validation + commit + WAL durability included.
	UpdateCommit *telemetry.Histogram
	// UpdateConflict observes CommitUpdate calls rejected with a
	// validation conflict (ns) — the cost of an optimistic miss.
	UpdateConflict *telemetry.Histogram
	// WALBatch observes one group-commit batch write (ns): buffered
	// write + fsync + rotation. WALFsync observes the fsync alone.
	WALBatch *telemetry.Histogram
	WALFsync *telemetry.Histogram
	// ReplApply observes one ApplyReplicated batch on a standby (ns):
	// local WAL append + store apply + invalidation relay.
	ReplApply *telemetry.Histogram
}

// NewTelemetry allocates the full histogram set.
func NewTelemetry() *Telemetry {
	return &Telemetry{
		UpdateCommit:   new(telemetry.Histogram),
		UpdateConflict: new(telemetry.Histogram),
		WALBatch:       new(telemetry.Histogram),
		WALFsync:       new(telemetry.Histogram),
		ReplApply:      new(telemetry.Histogram),
	}
}

// RegisterMetrics registers every database counter, the WAL and
// replication gauges, and the latency histograms into reg.
func (d *DB) RegisterMetrics(reg *telemetry.Registry) {
	d.counters.Register(reg)
	reg.Counter("wal_records", func() uint64 { return d.walMetrics().Records })
	reg.Counter("wal_batches", func() uint64 { return d.walMetrics().Batches })
	reg.Counter("wal_fsyncs", func() uint64 { return d.walMetrics().Fsyncs })
	reg.Counter("wal_bytes", func() uint64 { return d.walMetrics().Bytes })
	reg.Counter("wal_rotations", func() uint64 { return d.walMetrics().Rotations })
	reg.Counter("wal_extends", func() uint64 { return d.walMetrics().Extends })
	reg.Counter("repl_applied", func() uint64 { return d.ReplStatusNow().Applied })

	reg.Gauge("repl_lag", func() uint64 { return d.ReplStatusNow().Lag })
	reg.Gauge("repl_replicas", func() uint64 { return uint64(d.ReplStatusNow().Replicas) })
	reg.Gauge("repl_primary", func() uint64 { return boolGauge(d.Role() == RolePrimary) })
	reg.Gauge("version_counter", d.VersionCounter)
	reg.Gauge("wal_segments", func() uint64 {
		if d.wal == nil {
			return 0
		}
		return uint64(d.wal.SegmentCount())
	})
	reg.Gauge("wal_healthy", func() uint64 { return boolGauge(d.Health() == nil) })

	reg.Histogram("update_commit_ns", d.tel.UpdateCommit)
	reg.Histogram("update_conflict_ns", d.tel.UpdateConflict)
	reg.Histogram("wal_batch_ns", d.tel.WALBatch)
	reg.Histogram("wal_fsync_ns", d.tel.WALFsync)
	reg.Histogram("repl_apply_ns", d.tel.ReplApply)
}

// AdminHealth evaluates the node's /healthz: role from the replication
// state, healthy unless the WAL carries a sticky write error.
func (d *DB) AdminHealth() telemetry.Health {
	h := telemetry.Health{Healthy: true, Role: d.Role().String()}
	if st := d.ReplStatusNow(); st.Role == RoleStandby && st.Leader != "" {
		h.Detail = "leader=" + st.Leader
	}
	if err := d.Health(); err != nil {
		h.Healthy = false
		h.Detail = err.Error()
	}
	return h
}

// walMetrics samples the WAL counters, or zeros for a database opened
// without one.
func (d *DB) walMetrics() wal.Metrics {
	if d.wal == nil {
		return wal.Metrics{}
	}
	return d.wal.Metrics()
}

func boolGauge(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
