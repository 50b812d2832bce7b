package telemetry

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketing(t *testing.T) {
	var h Histogram
	samples := []uint64{0, 1, 2, 3, 4, 7, 8, 1023, 1024, 1 << 40, ^uint64(0)}
	for _, v := range samples {
		h.Observe(v)
	}
	s := h.Snapshot()
	if got := s.Count(); got != uint64(len(samples)) {
		t.Fatalf("Count = %d, want %d", got, len(samples))
	}
	wantBuckets := map[int]uint64{
		0:  1, // 0
		1:  1, // 1
		2:  2, // 2,3
		3:  2, // 4,7
		4:  1, // 8
		10: 1, // 1023
		11: 1, // 1024
		41: 1, // 1<<40
		63: 1, // max (clamped)
	}
	for i, want := range wantBuckets {
		if s.Counts[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], want)
		}
	}
	var sum uint64
	for _, v := range samples {
		sum += v
	}
	if s.Sum != sum {
		t.Errorf("Sum = %d, want %d", s.Sum, sum)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(42)               // must not panic
	h.ObserveSince(time.Now())  // must not panic
	h.ObserveSince(time.Time{}) // zero start: no-op
	s := h.Snapshot()
	if s.Count() != 0 || s.Sum != 0 {
		t.Fatalf("nil histogram snapshot not empty: %+v", s)
	}
	var sh *StripedHistogram
	sh.Stripe(3).Observe(42) // a nil set hands out nil stripes
	if s := sh.Snapshot(); s.Count() != 0 || s.Sum != 0 {
		t.Fatalf("nil striped histogram snapshot not empty: %+v", s)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1000 samples uniform in [1, 1000]: p50 ≈ 500, p99 ≈ 990, within
	// one log bucket of error (≤ 2×).
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	checks := []struct {
		q          float64
		want       uint64
		loFactor   float64
		hiFactor   float64
		descriptor string
	}{
		{0.50, 500, 0.5, 2, "p50"},
		{0.95, 950, 0.5, 2, "p95"},
		{0.99, 990, 0.5, 2, "p99"},
	}
	for _, c := range checks {
		got := s.Quantile(c.q)
		if float64(got) < float64(c.want)*c.loFactor || float64(got) > float64(c.want)*c.hiFactor {
			t.Errorf("%s = %d, want within [%g, %g]×%d", c.descriptor, got, c.loFactor, c.hiFactor, c.want)
		}
	}
	if got := s.Max(); got < 1000 || got > 2047 {
		t.Errorf("Max = %d, want in [1000, 2047]", got)
	}
	if got := s.Mean(); got != 500500/1000 {
		t.Errorf("Mean = %d, want %d", got, 500500/1000)
	}
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 || empty.Max() != 0 || empty.Mean() != 0 {
		t.Errorf("empty snapshot summaries must be zero")
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for v := uint64(1); v <= 100; v++ {
		a.Observe(v)
		b.Observe(v * 1000)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if got := sa.Count(); got != 200 {
		t.Fatalf("merged Count = %d, want 200", got)
	}
	if sa.Sum != 5050+5050*1000 {
		t.Fatalf("merged Sum = %d, want %d", sa.Sum, 5050+5050*1000)
	}
}

// TestHistogramHammer is the concurrency gate: many goroutines record
// while others snapshot and merge; when the dust settles every
// observation must be present exactly once (count conservation). Run
// under -race this also proves the record path is data-race free. The
// striped histogram goes through the same hammer, each sample recorded on
// the stripe its value picks, so all stripes are written concurrently
// while the snapshoters merge them.
func TestHistogramHammer(t *testing.T) {
	var plain Histogram
	var striped StripedHistogram
	t.Run("plain", func(t *testing.T) {
		hammer(t, func(v uint64) { plain.Observe(v) }, plain.Snapshot)
	})
	t.Run("striped", func(t *testing.T) {
		hammer(t, func(v uint64) { striped.Stripe(v).Observe(v) }, striped.Snapshot)
		for i := range striped.stripes {
			if s := striped.stripes[i].Snapshot(); s.Count() == 0 {
				t.Errorf("stripe %d recorded nothing", i)
			}
		}
	})
}

func hammer(t *testing.T, observe func(uint64), snapshot func() HistogramSnapshot) {
	const (
		writers     = 8
		perWriter   = 50000
		snapshoters = 4
	)
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	for i := 0; i < snapshoters; i++ {
		snaps.Add(1)
		go func() {
			defer snaps.Done()
			var merged HistogramSnapshot
			for {
				select {
				case <-stop:
					return
				default:
				}
				merged.Merge(snapshot())
				_ = merged.Quantile(0.99)
			}
		}()
	}
	var writersWG sync.WaitGroup
	var sumMu sync.Mutex
	var wantSum uint64
	for i := 0; i < writers; i++ {
		writersWG.Add(1)
		go func(seed int64) {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(seed))
			var local uint64
			for j := 0; j < perWriter; j++ {
				v := uint64(rng.Int63n(1 << 30))
				observe(v)
				local += v
			}
			sumMu.Lock()
			wantSum += local
			sumMu.Unlock()
		}(int64(i))
	}
	writersWG.Wait()
	close(stop)
	snaps.Wait()
	s := snapshot()
	if got := s.Count(); got != writers*perWriter {
		t.Fatalf("count not conserved: %d, want %d", got, writers*perWriter)
	}
	if s.Sum != wantSum {
		t.Fatalf("sum not conserved: %d, want %d", s.Sum, wantSum)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := uint64(1)
		for pb.Next() {
			h.Observe(v)
			v = v*2862933555777941757 + 3037000493 // cheap LCG spread
		}
	})
}
