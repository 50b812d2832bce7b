// Package stats provides the small statistical toolkit used by the
// experiment harness and the load driver: samples with percentiles (the
// paper reports medians with 10/90-percentile error bars) and
// time-bucketed series for the convergence plots.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates float64 observations and answers order statistics.
// The zero value is ready to use. Sample is not safe for concurrent use.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks, or NaN for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Quantiles returns the (10, 50, 90) percentiles, matching the error bars
// in the paper's Figure 7.
func (s *Sample) Quantiles() (p10, p50, p90 float64) {
	return s.Percentile(10), s.Percentile(50), s.Percentile(90)
}

// String renders "median [p10,p90] (n=N)".
func (s *Sample) String() string {
	if s.N() == 0 {
		return "empty"
	}
	p10, p50, p90 := s.Quantiles()
	return fmt.Sprintf("%.4g [%.4g,%.4g] (n=%d)", p50, p10, p90, s.N())
}
