package monitor

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"tcache/internal/kv"
)

func v(c uint64) kv.Version { return kv.Version{Counter: c} }

func TestEmptyReadSetConsistent(t *testing.T) {
	m := New()
	if got := m.RecordReadOnly(nil, true); !got.Consistent {
		t.Fatal("empty read set classified inconsistent")
	}
}

func TestCurrentReadsConsistent(t *testing.T) {
	m := New()
	m.RecordUpdate(v(1), []kv.Key{"a", "b"}, nil)
	m.RecordUpdate(v(2), []kv.Key{"a", "b"}, nil)
	got := m.RecordReadOnly([]Read{{"a", v(2)}, {"b", v(2)}}, true)
	if !got.Consistent {
		t.Fatal("reading the latest snapshot classified inconsistent")
	}
}

func TestOldButMutuallyConsistentReads(t *testing.T) {
	m := New()
	m.RecordUpdate(v(1), []kv.Key{"a", "b"}, nil)
	m.RecordUpdate(v(2), []kv.Key{"a", "b"}, nil)
	// Both reads from the version-1 snapshot: serializes before txn 2.
	if got := m.RecordReadOnly([]Read{{"a", v(1)}, {"b", v(1)}}, true); !got.Consistent {
		t.Fatal("old-but-coherent snapshot classified inconsistent")
	}
}

func TestTornSnapshotInconsistent(t *testing.T) {
	m := New()
	m.RecordUpdate(v(1), []kv.Key{"a", "b"}, nil)
	m.RecordUpdate(v(2), []kv.Key{"a", "b"}, nil)
	// a from the old snapshot, b from the new: no serialization point.
	if got := m.RecordReadOnly([]Read{{"a", v(1)}, {"b", v(2)}}, true); got.Consistent {
		t.Fatal("torn snapshot classified consistent")
	}
}

func TestIndependentHistoriesConsistent(t *testing.T) {
	m := New()
	m.RecordUpdate(v(1), []kv.Key{"a"}, nil)
	m.RecordUpdate(v(2), []kv.Key{"b"}, nil)
	m.RecordUpdate(v(3), []kv.Key{"a"}, nil)
	// a@1 was overwritten at 3; b@2 < 3, so a point exists in [2,3).
	if got := m.RecordReadOnly([]Read{{"a", v(1)}, {"b", v(2)}}, true); !got.Consistent {
		t.Fatal("serializable interleaving classified inconsistent")
	}
}

func TestOverwriteBoundaryExactlyExcluded(t *testing.T) {
	m := New()
	m.RecordUpdate(v(1), []kv.Key{"a"}, nil)
	m.RecordUpdate(v(2), []kv.Key{"a"}, nil)
	m.RecordUpdate(v(2), []kv.Key{"b"}, nil) // same version: one txn wrote both
	// Reading a@1 and b@2: a@1 dies exactly when b@2 is born.
	if got := m.RecordReadOnly([]Read{{"a", v(1)}, {"b", v(2)}}, true); got.Consistent {
		t.Fatal("read across the overwrite boundary classified consistent")
	}
}

func TestZeroVersionReads(t *testing.T) {
	m := New()
	// Reading a key before any write is consistent with anything current.
	if got := m.RecordReadOnly([]Read{{"never", kv.ZeroVersion}}, true); !got.Consistent {
		t.Fatal("zero-version read classified inconsistent")
	}
	m.RecordUpdate(v(5), []kv.Key{"x"}, nil)
	// Txn 6 read x@5 (a real conflict), so it must come after txn 5;
	// reading pre-write x together with y@6 is then non-serializable.
	m.RecordUpdate(v(6), []kv.Key{"y"}, []Read{{"x", v(5)}})
	if got := m.RecordReadOnly([]Read{{"x", kv.ZeroVersion}, {"y", v(6)}}, true); got.Consistent {
		t.Fatal("pre-write read of x cannot coexist with y@6")
	}
}

func TestSeededInitialVersions(t *testing.T) {
	m := New()
	m.Seed("a", v(1))
	m.Seed("b", v(1))
	m.RecordUpdate(v(2), []kv.Key{"b"}, nil)
	if got := m.RecordReadOnly([]Read{{"a", v(1)}, {"b", v(2)}}, true); !got.Consistent {
		t.Fatal("seeded versions broke classification")
	}
	if got := m.RecordReadOnly([]Read{{"b", v(1)}, {"a", v(1)}}, true); !got.Consistent {
		t.Fatal("seed-level snapshot should be consistent")
	}
}

func TestStatsCounters(t *testing.T) {
	m := New()
	m.RecordUpdate(v(1), []kv.Key{"a", "b"}, nil)
	m.RecordUpdate(v(2), []kv.Key{"a", "b"}, nil)

	m.RecordReadOnly([]Read{{"a", v(2)}, {"b", v(2)}}, true)  // committed consistent
	m.RecordReadOnly([]Read{{"a", v(1)}, {"b", v(2)}}, true)  // committed inconsistent
	m.RecordReadOnly([]Read{{"a", v(2)}}, false)              // aborted consistent
	m.RecordReadOnly([]Read{{"a", v(1)}, {"b", v(2)}}, false) // aborted inconsistent

	s := m.Stats()
	want := Stats{
		CommittedConsistent:   1,
		CommittedInconsistent: 1,
		AbortedConsistent:     1,
		AbortedInconsistent:   1,
		Updates:               2,
	}
	if s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
	if s.Committed() != 2 || s.ReadOnly() != 4 {
		t.Fatalf("derived counts wrong: %+v", s)
	}
	if got := s.InconsistencyRatio(); got != 50 {
		t.Fatalf("InconsistencyRatio = %v, want 50", got)
	}
	if got := s.DetectionRatio(); got != 50 {
		t.Fatalf("DetectionRatio = %v, want 50", got)
	}
}

func TestStatsRatiosEmpty(t *testing.T) {
	var s Stats
	if s.InconsistencyRatio() != 0 || s.DetectionRatio() != 0 {
		t.Fatal("empty stats ratios should be 0")
	}
}

func TestOutOfOrderUpdatesTolerated(t *testing.T) {
	m := New()
	m.RecordUpdate(v(5), []kv.Key{"a"}, nil)
	m.RecordUpdate(v(3), []kv.Key{"a"}, nil)
	m.RecordUpdate(v(4), []kv.Key{"b"}, nil)
	// a@3 overwritten at 5; reading a@3 with b@4 is fine (point in [4,5)).
	if got := m.RecordReadOnly([]Read{{"a", v(3)}, {"b", v(4)}}, true); !got.Consistent {
		t.Fatal("out-of-order ingestion broke classification")
	}
	// Make the overwriter of a@3 conflict with a later writer of b, then
	// a@3 with the new b is non-serializable.
	m.RecordUpdate(v(6), []kv.Key{"b"}, []Read{{"a", v(5)}})
	if got := m.RecordReadOnly([]Read{{"a", v(3)}, {"b", v(6)}}, true); got.Consistent {
		t.Fatal("b@6 (whose txn read a@5) should conflict with a@3")
	}
}

func TestInsertIdempotent(t *testing.T) {
	m := New()
	for i := 0; i < 3; i++ {
		m.RecordUpdate(v(7), []kv.Key{"a"}, nil)
	}
	if got := m.HistoryLen("a"); got != 1 {
		t.Fatalf("HistoryLen = %d, want 1", got)
	}
}

func TestUnknownVersionRegisteredDefensively(t *testing.T) {
	m := New()
	// The monitor never saw an update for "a", but a read reports one.
	m.RecordReadOnly([]Read{{"a", v(9)}}, true)
	if got := m.HistoryLen("a"); got != 1 {
		t.Fatalf("HistoryLen = %d, want 1", got)
	}
}

func TestCheckSGTMatchesIntervalTest(t *testing.T) {
	// Property: on random histories and random read sets, the explicit
	// serialization-graph search and the interval test agree.
	r := rand.New(rand.NewSource(2024))
	keys := []kv.Key{"a", "b", "c", "d", "e"}
	for iter := 0; iter < 300; iter++ {
		m := New()
		versionOf := map[kv.Key][]kv.Version{}
		for ver := uint64(1); ver <= uint64(5+r.Intn(20)); ver++ {
			var writes []kv.Key
			for _, k := range keys {
				if r.Intn(3) == 0 {
					writes = append(writes, k)
					versionOf[k] = append(versionOf[k], v(ver))
				}
			}
			if len(writes) > 0 {
				m.RecordUpdate(v(ver), writes, nil)
			}
		}
		var reads []Read
		for _, k := range keys {
			if h := versionOf[k]; len(h) > 0 && r.Intn(2) == 0 {
				reads = append(reads, Read{Key: k, Version: h[r.Intn(len(h))]})
			}
		}
		interval := m.Classify(reads)
		sgt := m.CheckSGT(reads)
		if interval != sgt {
			t.Fatalf("iter %d: interval=%v sgt=%v for reads %v", iter, interval, sgt, reads)
		}
	}
}

func TestCheckSGTSimpleCycle(t *testing.T) {
	m := New()
	m.RecordUpdate(v(1), []kv.Key{"a", "b"}, nil)
	m.RecordUpdate(v(2), []kv.Key{"a", "b"}, nil)
	if m.CheckSGT([]Read{{"a", v(1)}, {"b", v(2)}}) {
		t.Fatal("SGT missed the torn-snapshot cycle")
	}
	if !m.CheckSGT([]Read{{"a", v(2)}, {"b", v(2)}}) {
		t.Fatal("SGT found a cycle in a clean snapshot")
	}
}

func TestConcurrentRecording(t *testing.T) {
	m := New()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(1); i <= 500; i++ {
			m.RecordUpdate(v(i), []kv.Key{kv.Key(fmt.Sprintf("k%d", i%7))}, nil)
		}
	}()
	for i := 0; i < 500; i++ {
		m.RecordReadOnly([]Read{{Key: kv.Key(fmt.Sprintf("k%d", i%7)), Version: v(uint64(i + 1))}}, true)
	}
	<-done
	if m.Stats().ReadOnly() != 500 {
		t.Fatal("lost read-only records")
	}
}

// TestMonitorHeapPerUpdate gates what the monitor retains per update. It
// records 20k updates of paper_sim's shape — 5 writes, each read at its
// prior version — over 2,000 seeded keys, then classifies 100k 5-read
// transactions, a quarter of whose reads are one version stale (they
// must retain nothing), and checks the live heap
// growth per update against a ceiling measured on that layout.
func TestMonitorHeapPerUpdate(t *testing.T) {
	const keys, updates, classifications = 2000, 20000, 100000
	key := make([]kv.Key, keys)
	for i := range key {
		key[i] = kv.Key(fmt.Sprintf("o%06d", i))
	}
	latest, prev := make([]uint64, keys), make([]uint64, keys)
	r := rand.New(rand.NewSource(1))
	writes := make([]kv.Key, 5)
	reads := make([]Read, 5)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := New()
	for i := range key {
		latest[i], prev[i] = 1, 1
		m.Seed(key[i], kv.Version{Counter: 1})
	}
	for c := uint64(2); c < updates+2; c++ {
		for j := range writes {
			k := r.Intn(keys)
			writes[j] = key[k]
			reads[j] = Read{Key: key[k], Version: kv.Version{Counter: latest[k]}}
			prev[k], latest[k] = latest[k], c
		}
		m.RecordUpdate(kv.Version{Counter: c}, writes, reads)
	}
	for i := 0; i < classifications; i++ {
		for j := range reads {
			k := r.Intn(keys)
			ver := latest[k]
			if r.Intn(4) == 0 {
				ver = prev[k] // a stale read: some read sets are torn
			}
			reads[j] = Read{Key: key[k], Version: kv.Version{Counter: ver}}
		}
		m.RecordReadOnly(reads, true)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / updates
	const ceiling = 500
	if per > ceiling {
		t.Fatalf("monitor retains %.0f bytes per update, ceiling %d", per, ceiling)
	}
	t.Logf("%.0f bytes retained per update (ceiling %d)", per, ceiling)
}

// TestSeekMatchesSearch compares seek with sort.Search over random
// sorted histories (with gaps, and versions differing only in Node),
// probing the empty history, below the first entry, above the last, each
// of the last three entries and their neighbours, and every other entry.
func TestSeekMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(h []entry, q kv.Version) {
		t.Helper()
		want := sort.Search(len(h), func(i int) bool { return !h[i].ver.Less(q) })
		i, found := seek(h, q)
		if i != want || found != (want < len(h) && h[want].ver == q) {
			t.Fatalf("seek(%d entries, %v) = %d, %v; sort.Search gives %d", len(h), q, i, found, want)
		}
	}
	check(nil, kv.Version{})
	check(nil, v(5))
	for n := 1; n <= 300; n++ {
		h := make([]entry, 0, n)
		var last kv.Version
		for len(h) < n {
			next := kv.Version{Counter: last.Counter + 1 + uint64(rng.Intn(3))}
			if len(h) > 0 && rng.Intn(4) == 0 {
				next = kv.Version{Counter: last.Counter, Node: last.Node + 1 + uint32(rng.Intn(2))}
			}
			h = append(h, entry{ver: next})
			last = next
		}
		check(h, kv.Version{})
		check(h, kv.Version{Counter: last.Counter + 1})
		check(h, kv.Version{Counter: last.Counter + 100})
		for j := 0; j < n; j++ {
			e := h[j].ver
			check(h, e)
			check(h, kv.Version{Counter: e.Counter, Node: e.Node + 1})
			if e.Counter > 0 {
				check(h, kv.Version{Counter: e.Counter - 1, Node: 7})
			}
		}
	}
}
