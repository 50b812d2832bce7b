package stats

import "time"

// TimeSeries buckets labelled event counts into fixed-width windows of
// virtual time. The convergence experiments (Figs. 4 and 5) use it to plot
// consistent / inconsistent / aborted transaction rates over time.
//
// The zero value is not usable; construct with NewTimeSeries.
type TimeSeries struct {
	origin time.Time
	width  time.Duration
	// buckets[i][label] counts events in window i.
	buckets []map[string]int
}

// NewTimeSeries creates a series with the given bucket width; events are
// bucketed relative to origin.
func NewTimeSeries(origin time.Time, width time.Duration) *TimeSeries {
	if width <= 0 {
		panic("stats: TimeSeries bucket width must be positive")
	}
	return &TimeSeries{origin: origin, width: width}
}

// Add counts one event with the given label at time t. Events before the
// origin are dropped.
func (ts *TimeSeries) Add(t time.Time, label string) {
	d := t.Sub(ts.origin)
	if d < 0 {
		return
	}
	i := int(d / ts.width)
	for len(ts.buckets) <= i {
		ts.buckets = append(ts.buckets, make(map[string]int))
	}
	ts.buckets[i][label]++
}

// Buckets returns the number of buckets (the index of the last bucket that
// received an event, plus one).
func (ts *TimeSeries) Buckets() int { return len(ts.buckets) }

// Origin returns the series' time origin.
func (ts *TimeSeries) Origin() time.Time { return ts.origin }

// Width returns the bucket width.
func (ts *TimeSeries) Width() time.Duration { return ts.width }

// Count returns the count for label in bucket i (0 if out of range).
func (ts *TimeSeries) Count(i int, label string) int {
	if i < 0 || i >= len(ts.buckets) {
		return 0
	}
	return ts.buckets[i][label]
}

// Total returns the total count across labels in bucket i.
func (ts *TimeSeries) Total(i int) int {
	if i < 0 || i >= len(ts.buckets) {
		return 0
	}
	n := 0
	for _, c := range ts.buckets[i] {
		n += c
	}
	return n
}

// Share returns label's fraction of bucket i's total as a percentage
// (0 for an empty bucket).
func (ts *TimeSeries) Share(i int, label string) float64 {
	total := ts.Total(i)
	if total == 0 {
		return 0
	}
	return 100 * float64(ts.Count(i, label)) / float64(total)
}

// BucketStart returns the start offset of bucket i from the origin.
func (ts *TimeSeries) BucketStart(i int) time.Duration {
	return time.Duration(i) * ts.width
}
