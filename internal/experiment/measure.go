package experiment

import (
	"time"

	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/monitor"
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
		Mon:      subMon(c.Mon.Stats(), mon0),
		Cache:    subCache(c.Cache.Metrics(), cache0),
		DB:       subDB(c.DB.Metrics(), db0),
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

func subMon(a, b monitor.Stats) monitor.Stats {
	return monitor.Stats{
		CommittedConsistent:   a.CommittedConsistent - b.CommittedConsistent,
		CommittedInconsistent: a.CommittedInconsistent - b.CommittedInconsistent,
		AbortedConsistent:     a.AbortedConsistent - b.AbortedConsistent,
		AbortedInconsistent:   a.AbortedInconsistent - b.AbortedInconsistent,
		Updates:               a.Updates - b.Updates,
	}
}

func subCache(a, b core.MetricsSnapshot) core.MetricsSnapshot {
	return core.MetricsSnapshot{
		Reads:                a.Reads - b.Reads,
		Hits:                 a.Hits - b.Hits,
		Misses:               a.Misses - b.Misses,
		TTLExpiries:          a.TTLExpiries - b.TTLExpiries,
		TxnsStarted:          a.TxnsStarted - b.TxnsStarted,
		TxnsCommitted:        a.TxnsCommitted - b.TxnsCommitted,
		TxnsAborted:          a.TxnsAborted - b.TxnsAborted,
		TxnsGCed:             a.TxnsGCed - b.TxnsGCed,
		Detected:             a.Detected - b.Detected,
		DetectedEq1:          a.DetectedEq1 - b.DetectedEq1,
		DetectedEq2:          a.DetectedEq2 - b.DetectedEq2,
		Retries:              a.Retries - b.Retries,
		RetriesResolved:      a.RetriesResolved - b.RetriesResolved,
		Evictions:            a.Evictions - b.Evictions,
		InvalidationsApplied: a.InvalidationsApplied - b.InvalidationsApplied,
		InvalidationsStale:   a.InvalidationsStale - b.InvalidationsStale,
		InvalidationsNoop:    a.InvalidationsNoop - b.InvalidationsNoop,
		MVServedOld:          a.MVServedOld - b.MVServedOld,
	}
}

func subDB(a, b db.MetricsSnapshot) db.MetricsSnapshot {
	return db.MetricsSnapshot{
		TxnsStarted:       a.TxnsStarted - b.TxnsStarted,
		TxnsCommitted:     a.TxnsCommitted - b.TxnsCommitted,
		TxnsAborted:       a.TxnsAborted - b.TxnsAborted,
		Conflicts:         a.Conflicts - b.Conflicts,
		TxnReads:          a.TxnReads - b.TxnReads,
		TxnWrites:         a.TxnWrites - b.TxnWrites,
		SingleGets:        a.SingleGets - b.SingleGets,
		InvalidationsSent: a.InvalidationsSent - b.InvalidationsSent,
	}
}
