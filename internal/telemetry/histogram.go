// Package telemetry is the low-overhead instrumentation substrate for
// the whole stack: lock-free log-bucketed latency histograms, sampled
// gauges, and a registry that aggregates the per-tier counters
// (core.Metrics, db.Metrics, WAL, router, client) into one named
// snapshot. The same snapshot feeds three surfaces — the Prometheus
// text exposition on the admin listener, the OpStats answer on the
// wire, and the in-process tcache.WithTelemetry hooks —
// so every tier reports through one vocabulary.
//
// Everything on the record path is wait-free: a histogram observation
// is two atomic adds on pre-allocated arrays, and a nil histogram is a
// no-op, so call sites gate telemetry by leaving the pointer nil
// rather than branching on a config flag.
package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of every Histogram: bucket 0
// holds exact zeros and bucket i (i ≥ 1) holds values in
// [2^(i-1), 2^i), so the full uint64 range is covered and the bucket
// index is one bits.Len64 — no search, no configuration, and any two
// histograms merge bucket-by-bucket.
const NumBuckets = 64

// Histogram is a lock-free log-bucketed histogram of uint64 samples
// (by convention nanoseconds). Recording is wait-free — an atomic
// increment of one power-of-two bucket plus an atomic add to the sum —
// so it is safe on the hottest paths; reading is a Snapshot, which is
// mergeable across histograms (and across nodes, via OpStats).
//
// The zero value is ready to use. A nil *Histogram is a valid no-op
// receiver for Observe/ObserveSince, which is how telemetry is
// disabled without branching at call sites.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	sum    atomic.Uint64
}

// bucketIndex maps a sample to its bucket: 0 for 0, else
// floor(log2(v))+1, clamped to the last bucket.
func bucketIndex(v uint64) int {
	i := bits.Len64(v)
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// BucketUpper returns the inclusive upper bound of bucket i — the
// largest sample the bucket can hold (2^i - 1, saturating to the
// maximum uint64 for the last bucket). It is the `le` bound of the
// Prometheus exposition and the interpolation ceiling for quantiles.
func BucketUpper(i int) uint64 {
	if i >= NumBuckets-1 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// Observe records one sample. Wait-free, zero allocations.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.counts[bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// ObserveSince records the elapsed time since start in nanoseconds —
// the idiomatic latency call: h.ObserveSince(start) with
// start := time.Now() stamped before the operation. Wait-free, zero
// allocations; a nil receiver or zero start is a no-op, so callers
// stamp start only when telemetry is enabled and pass it through
// unconditionally.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil || start.IsZero() {
		return
	}
	d := time.Since(start)
	if d < 0 {
		d = 0
	}
	h.counts[bucketIndex(uint64(d))].Add(1)
	h.sum.Add(uint64(d))
}

// Snapshot copies the current bucket counts and sum. Each bucket is
// read atomically but the set is not a consistent cut under concurrent
// recording; once recorders quiesce, a snapshot holds exactly every
// observation (count conservation — tested under -race).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = h.sum.Load()
	return s
}

// histStripes is the stripe count of a StripedHistogram.
const histStripes = 16

// StripedHistogram is a Histogram for a path every core records on —
// CounterSet.Striped's idea applied to a histogram: histStripes
// histograms, each on cache lines of its own, merged at Snapshot. The
// recorder picks its stripe by an id it already has (a transaction id, a
// key hash), so two cores finishing transactions at once add to
// different lines instead of queueing on one.
//
// The zero value is ready to use; a nil *StripedHistogram hands out nil
// stripes, which record nothing.
type StripedHistogram struct {
	stripes [histStripes]struct {
		Histogram
		_ [120]byte // ≥ a line of slack, so neighbours share none however the array is aligned
	}
}

// Stripe returns the histogram the recorder identified by id records
// into.
func (s *StripedHistogram) Stripe(id uint64) *Histogram {
	if s == nil {
		return nil
	}
	return &s.stripes[id%histStripes].Histogram
}

// Snapshot merges the stripes' snapshots; count conservation holds as it
// does for one Histogram.
func (s *StripedHistogram) Snapshot() HistogramSnapshot {
	var out HistogramSnapshot
	if s == nil {
		return out
	}
	for i := range s.stripes {
		out.Merge(s.stripes[i].Snapshot())
	}
	return out
}

// HistogramSnapshot is a point-in-time copy of a Histogram: plain
// values, safe to merge, serialize, and summarize.
type HistogramSnapshot struct {
	Counts [NumBuckets]uint64
	Sum    uint64
}

// Count returns the total number of recorded samples.
func (s *HistogramSnapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Merge adds other's samples into s. Log-bucketed histograms with a
// shared bucket scheme merge exactly — this is what lets per-node and
// per-connection histograms aggregate into a fleet view.
func (s *HistogramSnapshot) Merge(other HistogramSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += other.Counts[i]
	}
	s.Sum += other.Sum
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) by locating the
// bucket holding the target rank and interpolating linearly within its
// [lower, upper] range. Log buckets bound the relative error by the
// bucket width (at most 2× at the top of a bucket), which is the usual
// trade for wait-free recording.
func (s *HistogramSnapshot) Quantile(q float64) uint64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum >= rank {
			lower := uint64(0)
			if i > 0 {
				lower = uint64(1) << uint(i-1)
			}
			upper := BucketUpper(i)
			frac := 0.0
			if c > 0 {
				frac = (rank - prev) / float64(c)
			}
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lower + uint64(float64(upper-lower)*frac)
		}
	}
	return BucketUpper(NumBuckets - 1)
}

// P50, P95 and P99 are the conventional summary quantiles.
func (s *HistogramSnapshot) P50() uint64 { return s.Quantile(0.50) }
func (s *HistogramSnapshot) P95() uint64 { return s.Quantile(0.95) }
func (s *HistogramSnapshot) P99() uint64 { return s.Quantile(0.99) }

// Max returns the upper bound of the highest occupied bucket — an
// overestimate of the true maximum by at most the bucket width, and 0
// for an empty histogram.
func (s *HistogramSnapshot) Max() uint64 {
	for i := NumBuckets - 1; i >= 0; i-- {
		if s.Counts[i] != 0 {
			return BucketUpper(i)
		}
	}
	return 0
}

// Mean returns the arithmetic mean of the recorded samples (exact: the
// sum is tracked alongside the buckets), or 0 for an empty histogram.
func (s *HistogramSnapshot) Mean() uint64 {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return s.Sum / n
}
