package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.Percentile(50)) {
		t.Fatal("empty sample should return NaN")
	}
	if s.N() != 0 {
		t.Fatal("empty sample has nonzero N")
	}
	if s.String() != "empty" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, x := range []float64{4, 1, 3, 2, 5} {
		s.Add(x)
	}
	if got := s.N(); got != 5 {
		t.Fatalf("N = %v, want 5", got)
	}
	if got := s.Percentile(50); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("min = %v, want 1", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Fatalf("max = %v, want 5", got)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	var s Sample
	s.Add(0)
	s.Add(10)
	if got := s.Percentile(50); got != 5 {
		t.Fatalf("P50 of {0,10} = %v, want 5", got)
	}
	if got := s.Percentile(25); got != 2.5 {
		t.Fatalf("P25 of {0,10} = %v, want 2.5", got)
	}
}

func TestPercentileClamps(t *testing.T) {
	var s Sample
	s.Add(1)
	s.Add(2)
	if s.Percentile(-5) != 1 || s.Percentile(200) != 2 {
		t.Fatal("out-of-range percentiles should clamp to min/max")
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		var s Sample
		any := false
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				s.Add(x)
				any = true
			}
		}
		if !any {
			return true
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return s.Percentile(pa) <= s.Percentile(pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileMatchesSortedRank(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var s Sample
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = r.Float64() * 100
		s.Add(xs[i])
	}
	sort.Float64s(xs)
	// With 101 points, P(k) lands exactly on index k.
	for _, p := range []float64{0, 10, 50, 90, 100} {
		want := xs[int(p)]
		if got := s.Percentile(p); math.Abs(got-want) > 1e-9 {
			t.Fatalf("P%v = %v, want %v", p, got, want)
		}
	}
}

func TestSampleAddAfterPercentile(t *testing.T) {
	var s Sample
	s.Add(1)
	_ = s.Percentile(50)
	s.Add(100)
	if got := s.Percentile(100); got != 100 {
		t.Fatalf("max after re-add = %v, want 100", got)
	}
}

func TestQuantiles(t *testing.T) {
	var s Sample
	for i := 0; i <= 100; i++ {
		s.Add(float64(i))
	}
	p10, p50, p90 := s.Quantiles()
	if p10 != 10 || p50 != 50 || p90 != 90 {
		t.Fatalf("Quantiles = %v,%v,%v", p10, p50, p90)
	}
}

func TestTimeSeriesBasics(t *testing.T) {
	origin := time.Unix(0, 0)
	ts := NewTimeSeries(origin, time.Second)
	ts.Add(origin, "a")
	ts.Add(origin.Add(500*time.Millisecond), "a")
	ts.Add(origin.Add(1500*time.Millisecond), "b")

	if got := ts.Buckets(); got != 2 {
		t.Fatalf("Buckets = %d, want 2", got)
	}
	if got := ts.Count(0, "a"); got != 2 {
		t.Fatalf("Count(0,a) = %d, want 2", got)
	}
	if got := ts.Count(1, "b"); got != 1 {
		t.Fatalf("Count(1,b) = %d, want 1", got)
	}
	if got := ts.Total(0); got != 2 {
		t.Fatalf("Total(0) = %d, want 2", got)
	}
	if got := ts.Share(0, "a"); got != 100 {
		t.Fatalf("Share(0,a) = %v, want 100", got)
	}
	ts.Add(origin.Add(200*time.Millisecond), "b")
	ts.Add(origin.Add(300*time.Millisecond), "b")
	if got := ts.Share(0, "a"); got != 50 {
		t.Fatalf("Share(0,a) = %v, want 50", got)
	}
	if got := ts.Share(7, "a"); got != 0 {
		t.Fatalf("Share of an empty bucket = %v, want 0", got)
	}
}

func TestTimeSeriesDropsPreOrigin(t *testing.T) {
	origin := time.Unix(100, 0)
	ts := NewTimeSeries(origin, time.Second)
	ts.Add(origin.Add(-time.Second), "x")
	if ts.Buckets() != 0 {
		t.Fatal("pre-origin event created a bucket")
	}
}

func TestTimeSeriesOutOfRange(t *testing.T) {
	ts := NewTimeSeries(time.Unix(0, 0), time.Second)
	if ts.Count(5, "a") != 0 || ts.Total(-1) != 0 {
		t.Fatal("out-of-range bucket should count 0")
	}
}

func TestTimeSeriesBadWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTimeSeries(0 width) did not panic")
		}
	}()
	NewTimeSeries(time.Unix(0, 0), 0)
}

func TestTimeSeriesBucketStart(t *testing.T) {
	ts := NewTimeSeries(time.Unix(0, 0), 2*time.Second)
	if got := ts.BucketStart(3); got != 6*time.Second {
		t.Fatalf("BucketStart(3) = %v, want 6s", got)
	}
	if got := ts.Width(); got != 2*time.Second {
		t.Fatalf("Width = %v", got)
	}
}
