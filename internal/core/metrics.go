package core

import (
	"sync/atomic"

	"tcache/internal/telemetry"
)

// Metrics holds the cache's monotonic counters — the one place each is
// declared. The metric tag is its registry name; Cache.Metrics and
// Cache.RegisterMetrics are both derived from this struct (see
// telemetry.CounterSet). The five counters every read or transaction
// moves are declared here but counted on the shards and stripes
// (hotNames; reads is hits + misses).
type Metrics struct {
	Reads                uint64v `metric:"reads"`
	Hits                 uint64v `metric:"hits"`
	Misses               uint64v `metric:"misses"`
	TTLExpiries          uint64v `metric:"ttl_expiries"`
	TxnsStarted          uint64v `metric:"txns_started"`
	TxnsCommitted        uint64v `metric:"txns_committed"`
	TxnsAborted          uint64v `metric:"txns_aborted"`
	TxnsAbortedOnClose   uint64v `metric:"txns_aborted_on_close"`
	Detected             uint64v `metric:"detected"`
	DetectedEq1          uint64v `metric:"detected_eq1"`
	DetectedEq2          uint64v `metric:"detected_eq2"`
	Retries              uint64v `metric:"retries"`
	RetriesResolved      uint64v `metric:"retries_resolved"`
	Evictions            uint64v `metric:"evictions"`
	EvictionsLRU         uint64v `metric:"budget_evictions_lru"`
	EvictionsClock       uint64v `metric:"budget_evictions_clock"`
	EvictionsCost        uint64v `metric:"budget_evictions_cost"`
	AdmissionRejects     uint64v `metric:"admission_rejects"`
	InvalidationsApplied uint64v `metric:"invalidations_applied"`
	InvalidationsStale   uint64v `metric:"invalidations_stale"`
	InvalidationsNoop    uint64v `metric:"invalidations_noop"`
	BackendErrors        uint64v `metric:"backend_errors"`
	BatchPrefetches      uint64v `metric:"batch_prefetches"`
	BatchPrefetchedKeys  uint64v `metric:"batch_prefetched_keys"`
	FloorRefetches       uint64v `metric:"floor_refetches"`
	CommitInstalls       uint64v `metric:"commit_installs"`
	CommitWaits          uint64v `metric:"update_commit_waits"`
	LocalConflicts       uint64v `metric:"update_local_conflicts"`
}

// uint64v aliases atomic.Uint64 to keep the struct declaration compact.
type uint64v = atomic.Uint64

// MetricsSnapshot is a point-in-time copy of Metrics: the same fields as
// plain uint64s (a test holds the two field sets equal).
type MetricsSnapshot struct {
	Reads                uint64
	Hits                 uint64
	Misses               uint64
	TTLExpiries          uint64
	TxnsStarted          uint64
	TxnsCommitted        uint64
	TxnsAborted          uint64
	TxnsAbortedOnClose   uint64
	Detected             uint64
	DetectedEq1          uint64
	DetectedEq2          uint64
	Retries              uint64
	RetriesResolved      uint64
	Evictions            uint64
	EvictionsLRU         uint64
	EvictionsClock       uint64
	EvictionsCost        uint64
	AdmissionRejects     uint64
	InvalidationsApplied uint64
	InvalidationsStale   uint64
	InvalidationsNoop    uint64
	BackendErrors        uint64
	BatchPrefetches      uint64
	BatchPrefetchedKeys  uint64
	FloorRefetches       uint64
	CommitInstalls       uint64
	CommitWaits          uint64
	LocalConflicts       uint64
}

// HitRatio returns hits / (hits + misses), or 1 if there were no reads.
func (m MetricsSnapshot) HitRatio() float64 {
	total := m.Hits + m.Misses
	if total == 0 {
		return 1
	}
	return float64(m.Hits) / float64(total)
}

// Metrics returns a snapshot of the cache counters.
func (c *Cache) Metrics() (out MetricsSnapshot) {
	c.counters.Fill(&out)
	return out
}

// bindCounters builds the counter set and declares the hot counters as
// sums over the shards and stripes that hold them.
func (c *Cache) bindCounters() {
	c.counters = telemetry.NewCounterSet(&c.metrics, MetricsSnapshot{})
	for i, name := range hotNames {
		c.counters.Striped(name, func() uint64 { return c.hotSum(i) })
	}
	c.counters.Striped("reads", func() uint64 { return c.hotSum(hotHits) + c.hotSum(hotMisses) })
}
