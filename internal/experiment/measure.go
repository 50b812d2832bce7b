package experiment

import (
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
	Mon      monitor.Stats
	Cache    core.MetricsSnapshot
	DB       db.MetricsSnapshot
}

// Measure snapshots all counters, executes run (which should advance the
// simulation), and returns the counter deltas.
func (c *Column) Measure(run func() error) (Measurement, error) {
	mon0 := c.Mon.Stats()
	cache0 := c.Cache.Metrics()
	db0 := c.DB.Metrics()
	t0 := c.Clk.Now()
	err := run()
	return Measurement{
		Duration: c.Clk.Since(t0),
		Mon:      telemetry.Sub(c.Mon.Stats(), mon0),
		Cache:    telemetry.Sub(c.Cache.Metrics(), cache0),
		DB:       telemetry.Sub(c.DB.Metrics(), db0),
	}, err
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
