package tcache

// The embedder-facing telemetry surface. A Telemetry is a bundle of
// lock-free latency histograms the client-side hot paths record into —
// the warm-hit and miss paths of the cache, whole read transactions and
// updates, and the wire round trips underneath a *Remote or cluster
// backend. Attach one with WithTelemetry; without it the hot paths take
// no time stamps at all (the warm hit stays allocation-free either
// way). Scrape it in process with Snapshot, or export it in Prometheus
// text format with WritePrometheus.
//
// The server-side complement is ServeMetrics (on *DB and *Edge): an
// admin HTTP listener with /metrics, /healthz and /debug/pprof — what
// the tdbd and tcached daemons expose with -metrics-addr.

import (
	"io"

	"tcache/internal/core"
	"tcache/internal/telemetry"
)

// Telemetry collects client-side latency histograms. Create one with
// NewTelemetry, pass it to NewCache via WithTelemetry, and read it at
// any time from any goroutine; recording is lock-free and
// allocation-free. One Telemetry may be shared by several caches (their
// observations merge into the same histograms).
type Telemetry struct {
	core      *core.Telemetry
	readTxn   *telemetry.StripedHistogram // every core, once per transaction
	update    *telemetry.Histogram
	roundTrip *telemetry.Histogram
	reg       *telemetry.Registry
}

// NewTelemetry allocates the client-side histogram set.
func NewTelemetry() *Telemetry {
	t := &Telemetry{
		core:      core.NewTelemetry(),
		readTxn:   &telemetry.StripedHistogram{},
		update:    &telemetry.Histogram{},
		roundTrip: &telemetry.Histogram{},
	}
	reg := telemetry.NewRegistry()
	reg.Histogram("client_read_txn_ns", t.readTxn)
	reg.Histogram("client_update_ns", t.update)
	reg.Histogram("client_round_trip_ns", t.roundTrip)
	reg.Histogram("client_read_warm_ns", t.core.ReadWarm)
	reg.Histogram("client_read_cold_ns", t.core.ReadCold)
	reg.Histogram("client_read_multi_ns", t.core.ReadMulti)
	reg.Histogram("client_eviction_scan", t.core.EvictionScan)
	t.reg = reg
	return t
}

// WithTelemetry attaches t to the cache built by NewCache: the cache's
// warm-hit, miss, and batch read paths record into t, ReadTxn and
// Update record whole-transaction latency, and — when the backend is a
// *Remote or a cluster — every wire round trip records into t too.
func WithTelemetry(t *Telemetry) CacheOption {
	return func(o *cacheOptions) {
		o.telemetry = t
		o.core.Telemetry = t.core
	}
}

// roundTripSetter is implemented by backends that can time their wire
// round trips (*Remote, the cluster backend). Unexported: the histogram
// type is internal; embedders reach this through WithTelemetry.
type roundTripSetter interface {
	setRoundTripHistogram(h *telemetry.Histogram)
}

// Snapshot returns every client-side histogram by metric name
// (client_read_txn_ns, client_update_ns, client_round_trip_ns,
// client_read_warm_ns, client_read_cold_ns, client_read_multi_ns,
// client_eviction_scan) — the same ServerStats type Remote.Stats
// returns. Each histogram is snapshotted atomically per bucket;
// concurrent recording proceeds untouched. ReadTxn spans every Get in
// the closure and Update its conflict retries and backoff; the round
// trip is zero under an in-process backend. client_read_warm_ns is
// sampled (every 64th hit of each cache shard, the first included), so
// its count is a sample count — Stats().Hits is exact; the cold read
// counts once per filled key, the multi read once per GetMulti batch.
func (t *Telemetry) Snapshot() ServerStats { return t.reg.Snapshot() }

// WritePrometheus writes the client-side histograms to w in Prometheus
// text exposition format (families tcache_client_read_txn_ns and
// friends) — for embedders that mount their own /metrics handler.
func (t *Telemetry) WritePrometheus(w io.Writer) error {
	return telemetry.WritePrometheus(w, telemetry.MetricsPrefix, t.reg.Snapshot())
}

// ServeMetrics starts the admin HTTP listener for this database at addr
// (for example "127.0.0.1:0"): /metrics serves the full database
// registry — transaction and conflict counters, WAL append/fsync
// histograms and segment gauges, replication lag — /healthz answers
// role-aware liveness (a standby is healthy and says so; a sticky WAL
// error turns it 503), and /debug/pprof serves the runtime profiles.
// It returns the bound address and a stop function. This is the
// programmatic form of tdbd's -metrics-addr flag.
func (d *DB) ServeMetrics(addr string) (bound string, stop func(), err error) {
	reg := telemetry.NewRegistry()
	d.inner.RegisterMetrics(reg)
	return telemetry.ServeAdmin(addr, reg, d.inner.AdminHealth)
}
