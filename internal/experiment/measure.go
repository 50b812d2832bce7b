package experiment

import (
	"reflect"
	"time"

	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/monitor"
	"tcache/internal/telemetry"
)

// Measurement is the delta of all system counters over a measurement
// window, plus derived ratios. The paper reports medians over such
// windows; our simulation is deterministic, so a single window suffices.
type Measurement struct {
	Duration time.Duration
	// Mon and Cache are summed over the column's edges (so Mon.Updates
	// counts every update once per edge); DB is the shared database's.
	Mon   monitor.Stats
	Cache core.MetricsSnapshot
	DB    db.MetricsSnapshot
	// Edges is the same window edge by edge — Mon and Cache only; what
	// they sum to is the Measurement itself.
	Edges []Measurement
}

// Measure executes run (which should advance the simulation) and
// returns every counter's delta over it.
func (c *Column) Measure(run func() error) (Measurement, error) {
	before := c.counters()
	err := run()
	return c.counters().since(before), err
}

// counters is the Measurement since the column was built: every
// counter's current value.
func (c *Column) counters() Measurement {
	m := Measurement{
		Duration: c.Clk.Since(c.born),
		DB:       c.DB.Metrics(),
		Edges:    make([]Measurement, len(c.edges)),
	}
	for e, ed := range c.edges {
		em := Measurement{Duration: m.Duration, Mon: ed.mon.Stats(), Cache: ed.cache.Metrics()}
		m.Edges[e] = em
		m.Mon, m.Cache = sum(m.Mon, em.Mon), sum(m.Cache, em.Cache)
	}
	return m
}

// since returns m − before, counter by counter and edge by edge.
func (m Measurement) since(before Measurement) Measurement {
	d := Measurement{
		Duration: m.Duration - before.Duration,
		Mon:      telemetry.Sub(m.Mon, before.Mon),
		Cache:    telemetry.Sub(m.Cache, before.Cache),
		DB:       telemetry.Sub(m.DB, before.DB),
	}
	for e := range m.Edges {
		d.Edges = append(d.Edges, m.Edges[e].since(before.Edges[e]))
	}
	return d
}

// sum returns a + b field by field, for the all-uint64 snapshot structs
// telemetry.Sub subtracts.
func sum[T any](a, b T) T {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetUint(va.Field(i).Uint() + vb.Field(i).Uint())
	}
	return a
}

// InconsistencyRatio is the percentage of committed read-only
// transactions that were not serializable (the paper's primary efficacy
// metric, Fig. 7c/d).
func (m Measurement) InconsistencyRatio() float64 { return m.Mon.InconsistencyRatio() }

// DetectionRatio is the percentage of actually-inconsistent transactions
// that T-Cache aborted (Fig. 3).
func (m Measurement) DetectionRatio() float64 { return m.Mon.DetectionRatio() }

// HitRatio is the cache hit ratio over the window (Fig. 7 middle panels).
func (m Measurement) HitRatio() float64 { return m.Cache.HitRatio() }

// DBAccessRate is the rate of single-entry reads hitting the backend
// (cache miss fills and read-throughs), in accesses per second (Fig. 7
// bottom panels).
func (m Measurement) DBAccessRate() float64 {
	if m.Duration <= 0 {
		return 0
	}
	return float64(m.DB.SingleGets) / m.Duration.Seconds()
}

// AbortedPct, InconsistentPct and ConsistentPct break all classified
// read-only transactions into the three shares of Figs. 6 and 8.
func (m Measurement) AbortedPct() float64 {
	return pct(m.Mon.AbortedConsistent+m.Mon.AbortedInconsistent, m.Mon.ReadOnly())
}

// InconsistentPct is the share of transactions that committed with
// non-serializable reads.
func (m Measurement) InconsistentPct() float64 {
	return pct(m.Mon.CommittedInconsistent, m.Mon.ReadOnly())
}

// ConsistentPct is the share of transactions that committed consistent.
func (m Measurement) ConsistentPct() float64 {
	return pct(m.Mon.CommittedConsistent, m.Mon.ReadOnly())
}

func pct(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}
