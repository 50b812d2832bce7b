package telemetry

import (
	"reflect"
	"testing"
)

func TestValidMetricName(t *testing.T) {
	valid := []string{"reads", "read_warm_ns", "p99", "a", "x_1_y"}
	invalid := []string{"", "Reads", "read-warm", "1reads", "_reads", "read warm", "read|h1", "read#ns"}
	for _, n := range valid {
		if !ValidMetricName(n) {
			t.Errorf("ValidMetricName(%q) = false, want true", n)
		}
	}
	for _, n := range invalid {
		if ValidMetricName(n) {
			t.Errorf("ValidMetricName(%q) = true, want false", n)
		}
	}
}

func TestRegistryPanicsOnBadNames(t *testing.T) {
	mustPanic := func(name string, fn func(r *Registry)) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn(NewRegistry())
	}
	mustPanic("invalid", func(r *Registry) { r.Counter("Bad-Name", func() uint64 { return 0 }) })
	mustPanic("duplicate", func(r *Registry) {
		r.Counter("dup", func() uint64 { return 0 })
		r.Gauge("dup", func() uint64 { return 0 })
	})
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	var c uint64 = 7
	r.Counter("reads", func() uint64 { return c })
	r.Gauge("lag", func() uint64 { return 3 })
	h := new(Histogram)
	r.Histogram("read_ns", h)
	r.Histogram("empty_ns", nil) // nil histogram registers an empty family

	h.Observe(100)
	h.Observe(200)

	s := r.Snapshot()
	if s.Counters["reads"] != 7 || s.Gauges["lag"] != 3 {
		t.Fatalf("snapshot scalar values wrong: %+v", s)
	}
	hs := s.Histograms["read_ns"]
	if hs.Count() != 2 || hs.Sum != 300 {
		t.Fatalf("snapshot histogram wrong: %+v", hs)
	}
	if es, ok := s.Histograms["empty_ns"]; !ok || es.Count() != 0 {
		t.Fatalf("nil-histogram family missing or nonzero: %+v ok=%v", es, ok)
	}
	c = 9
	if got := r.Snapshot().Counters["reads"]; got != 9 {
		t.Fatalf("counter not sampled lazily: %d", got)
	}
	want := []string{"empty_ns", "lag", "read_ns", "reads"}
	if got := r.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
}

// TestSnapshotMerge: counters, gauges and histograms all add by name,
// into a zero Snapshot too — the cluster aggregate's rule.
func TestSnapshotMerge(t *testing.T) {
	var h1, h2 HistogramSnapshot
	h1.Counts[3], h1.Sum = 2, 10
	h2.Counts[3], h2.Counts[9], h2.Sum = 1, 1, 300
	a := Snapshot{
		Counters:   map[string]uint64{"reads": 4},
		Gauges:     map[string]uint64{"cache_resident_bytes": 100},
		Histograms: map[string]HistogramSnapshot{"read_ns": h1},
	}
	b := Snapshot{
		Counters:   map[string]uint64{"reads": 5, "hits": 1},
		Gauges:     map[string]uint64{"cache_resident_bytes": 50},
		Histograms: map[string]HistogramSnapshot{"read_ns": h2},
	}
	var sum Snapshot
	sum.Merge(a)
	sum.Merge(b)
	var want HistogramSnapshot
	want.Counts[3], want.Counts[9], want.Sum = 3, 1, 310
	if !reflect.DeepEqual(sum, Snapshot{
		Counters:   map[string]uint64{"reads": 9, "hits": 1},
		Gauges:     map[string]uint64{"cache_resident_bytes": 150},
		Histograms: map[string]HistogramSnapshot{"read_ns": want},
	}) {
		t.Fatalf("merged = %+v", sum)
	}
	if a.Counters["reads"] != 4 || a.Histograms["read_ns"] != h1 {
		t.Fatalf("merge changed its argument: %+v", a)
	}
}
