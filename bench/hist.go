package main

import (
	"math/bits"
	"sort"
)

// hist is the benchmark's own latency recorder: a log-linear histogram
// with 128 linear sub-buckets per power of two, so a reported quantile
// is within 1/128 (< 1 %) of the recorded value. internal/telemetry's
// power-of-two buckets are too coarse to gate a 10 % regression on.
// Not safe for concurrent use: every load-generator worker owns one and
// the results are merged after the phase.
type hist struct {
	counts []uint64
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// histMaxExp bounds the range at 2^(histSubBits+histMaxExp) ns ≈ 39 h;
	// larger values land in the last bucket.
	histMaxExp = 40
)

func newHist() *hist {
	return &hist{counts: make([]uint64, (histMaxExp+1)*histSub)}
}

// histIndex maps a value to its bucket: values below 128 are exact, and
// above that the top 7 bits after the leading one select the sub-bucket.
func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - histSubBits - 1
	if exp >= histMaxExp {
		return (histMaxExp+1)*histSub - 1
	}
	return (exp+1)*histSub + int(v>>uint(exp)) - histSub
}

// histBounds returns the inclusive value range of bucket i.
func histBounds(i int) (lo, hi uint64) {
	if i < histSub {
		return uint64(i), uint64(i)
	}
	exp := uint(i/histSub - 1)
	lo = uint64(i%histSub+histSub) << exp
	return lo, lo + (1 << exp) - 1
}

func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(uint64(v))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	if o == nil {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-th sample (nearest rank), placed inside its
// bucket by linear interpolation over the bucket's samples; 0 for an
// empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+c >= rank {
			lo, hi := histBounds(i)
			return float64(lo) + float64(hi-lo)*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += c
	}
	return 0
}

func (h *hist) p99() float64 { return h.quantile(0.99) }

// median returns the median of xs (mean of the middle pair for an even
// count), or 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the acceptance driver computes spreads with. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4 // after clamping, as Python does: it extrapolates at the ends
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
