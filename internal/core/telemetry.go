package core

import (
	"tcache/internal/telemetry"
)

// Telemetry is the cache's optional latency instrumentation: log-bucketed
// histograms fed from the read paths. It is wired through
// Config.Telemetry; a nil Telemetry (the default) keeps the read paths
// entirely untouched — not even a clock read — and a non-nil one times
// each batch once and one warm hit in warmSampleEvery, zero allocations
// (TestAllocBudgets' CoreWarmHitTelemetry row in the root package).
type Telemetry struct {
	// ReadWarm observes the latency (ns) of serving one key from the
	// cache under its shard lock (a warm hit: no backend round trip).
	// It is a sample — every warmSampleEvery-th hit of each shard, the
	// first included — so its count is a sample count; the hits counter
	// is the exact series.
	ReadWarm *telemetry.Histogram
	// ReadCold observes the latency (ns) of reads filled from the
	// backend (miss, TTL expiry, floor refetch): the fetch plus the
	// inserts, once per filled key.
	ReadCold *telemetry.Histogram
	// ReadMulti observes whole batch reads, one observation each —
	// transactional ReadMulti calls (fetch included) and the
	// item-granular GetItems batches cluster routers drive. Every core
	// records here once per batch, so it is striped (by TxnID; by the
	// first key's hash where there is no transaction).
	ReadMulti *telemetry.StripedHistogram
	// EvictionScan observes how many candidates the eviction policy
	// examined per victim (1 for exact LRU; CLOCK and cost-aware sweep
	// or sample) — the budget-enforcement cost distribution.
	EvictionScan *telemetry.Histogram
}

// NewTelemetry allocates the full histogram set.
func NewTelemetry() *Telemetry {
	return &Telemetry{
		ReadWarm:     new(telemetry.Histogram),
		ReadCold:     new(telemetry.Histogram),
		ReadMulti:    new(telemetry.StripedHistogram),
		EvictionScan: new(telemetry.Histogram),
	}
}

// RegisterMetrics registers every cache counter, gauge, and histogram
// into reg under the shared metric vocabulary.
func (c *Cache) RegisterMetrics(reg *telemetry.Registry) {
	c.counters.Register(reg)

	reg.Gauge("cache_entries", func() uint64 { return uint64(c.Len()) })
	reg.Gauge("cache_resident_bytes", c.ResidentBytes)
	reg.Gauge("cache_max_bytes", c.MaxBytes)
	reg.Gauge("active_txns", func() uint64 { return uint64(c.ActiveTxns()) })

	// Histogram families are registered even when telemetry is disabled
	// (nil receivers record nothing) so the scrape surface is stable.
	var warm, cold, escan *telemetry.Histogram
	var multi *telemetry.StripedHistogram
	if c.tel != nil {
		warm, cold, multi, escan = c.tel.ReadWarm, c.tel.ReadCold, c.tel.ReadMulti, c.tel.EvictionScan
	}
	reg.Histogram("read_warm_ns", warm)
	reg.Histogram("read_cold_ns", cold)
	reg.Histogram("read_multi_ns", multi)
	reg.Histogram("eviction_scan", escan)
}
