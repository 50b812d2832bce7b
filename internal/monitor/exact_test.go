package monitor

import (
	"math/rand"
	"slices"
	"testing"

	"tcache/internal/kv"
)

func TestExactAllowsIndependentReordering(t *testing.T) {
	// The heart of Definition 1: update transactions that do not
	// conflict may be serialized in either order. T reads x@1 (later
	// overwritten at 10) and y@11; since the overwriter of x (txn 10)
	// and the writer of y (txn 11) touch disjoint data, the order
	// 11, T, 10 serializes T — even though the versions look torn.
	m := New()
	m.RecordUpdate(v(1), []kv.Key{"x"}, nil)
	m.RecordUpdate(v(2), []kv.Key{"y"}, nil)
	m.RecordUpdate(v(10), []kv.Key{"x"}, []Read{{"x", v(1)}})
	m.RecordUpdate(v(11), []kv.Key{"y"}, []Read{{"y", v(2)}})

	reads := []Read{{"x", v(1)}, {"y", v(11)}}
	if m.Classify(reads) {
		t.Fatal("strict interval test should reject the version-torn read")
	}
	if !m.ClassifyExact(reads) {
		t.Fatal("exact SGT must allow reordering of independent updates")
	}
	if got := m.RecordReadOnly(reads, true); !got.Consistent {
		t.Fatal("RecordReadOnly must use the exact classification")
	}
}

func TestExactRejectsConflictChain(t *testing.T) {
	// Same shape, but now the overwriter of x reaches the writer of y
	// through a wr conflict: txn 11 read x@10. T must be after 11
	// (reads y@11) and before 10 (reads x@1), but 10 → 11 — a cycle.
	m := New()
	m.RecordUpdate(v(1), []kv.Key{"x"}, nil)
	m.RecordUpdate(v(2), []kv.Key{"y"}, nil)
	m.RecordUpdate(v(10), []kv.Key{"x"}, []Read{{"x", v(1)}})
	m.RecordUpdate(v(11), []kv.Key{"y"}, []Read{{"y", v(2)}, {"x", v(10)}})

	if m.ClassifyExact([]Read{{"x", v(1)}, {"y", v(11)}}) {
		t.Fatal("wr conflict chain not detected")
	}
}

func TestExactRejectsTransitiveChain(t *testing.T) {
	// 10 → 11 → 12 via intermediate object z: the overwriter of x
	// reaches the writer of y in two hops.
	m := New()
	m.RecordUpdate(v(1), []kv.Key{"x"}, nil)
	m.RecordUpdate(v(2), []kv.Key{"z"}, nil)
	m.RecordUpdate(v(3), []kv.Key{"y"}, nil)
	m.RecordUpdate(v(10), []kv.Key{"x", "z"}, []Read{{"x", v(1)}, {"z", v(2)}})
	m.RecordUpdate(v(11), []kv.Key{"z"}, []Read{{"z", v(10)}})
	m.RecordUpdate(v(12), []kv.Key{"y"}, []Read{{"z", v(11)}})

	if m.ClassifyExact([]Read{{"x", v(1)}, {"y", v(12)}}) {
		t.Fatal("transitive ww/wr chain not detected")
	}
}

func TestExactRWEdge(t *testing.T) {
	// rw (anti-dependency) edge: txn 10 READ w@1, txn 11 overwrote w.
	// So 10 must precede 11 in every serialization. T reads x@1 (10
	// overwrote x) and y@11: T before 10 ≺ 11, but T after 11 — cycle.
	m := New()
	m.RecordUpdate(v(1), []kv.Key{"x", "w"}, nil)
	m.RecordUpdate(v(2), []kv.Key{"y"}, nil)
	m.RecordUpdate(v(10), []kv.Key{"x"}, []Read{{"x", v(1)}, {"w", v(1)}})
	m.RecordUpdate(v(11), []kv.Key{"y", "w"}, []Read{{"y", v(2)}, {"w", v(1)}})

	if m.ClassifyExact([]Read{{"x", v(1)}, {"y", v(11)}}) {
		t.Fatal("rw anti-dependency edge not detected")
	}
}

func TestExactDirectOverwriterIsWriter(t *testing.T) {
	// O_x == W_y: the transaction that overwrote x also wrote y.
	m := New()
	m.RecordUpdate(v(1), []kv.Key{"x", "y"}, nil)
	m.RecordUpdate(v(2), []kv.Key{"x", "y"}, []Read{{"x", v(1)}, {"y", v(1)}})
	if m.ClassifyExact([]Read{{"x", v(1)}, {"y", v(2)}}) {
		t.Fatal("direct overwriter==writer cycle not detected")
	}
}

func TestExactMergesDuplicateVersionRecords(t *testing.T) {
	// One transaction's writes reported in two calls must merge.
	m := New()
	m.RecordUpdate(v(1), []kv.Key{"a", "b"}, nil)
	m.RecordUpdate(v(2), []kv.Key{"a"}, []Read{{"a", v(1)}})
	m.RecordUpdate(v(2), []kv.Key{"b"}, []Read{{"b", v(1)}})
	if m.ClassifyExact([]Read{{"a", v(1)}, {"b", v(2)}}) {
		t.Fatal("merged duplicate version lost its writes")
	}
}

func TestExactMergedReportKeepsZeroVersionReads(t *testing.T) {
	// Txn 10's second report carries its read of w before w existed: an
	// rw edge to w's first writer, txn 11. T reads x@1 (10 overwrote x)
	// and y@11, so T precedes 10 ≺ 11 yet follows 11 — a cycle only
	// through the second report's read. The oracle must agree.
	for _, m := range []recorder{New(), newRefMonitor()} {
		m.RecordUpdate(v(1), []kv.Key{"x"}, nil)
		m.RecordUpdate(v(2), []kv.Key{"y"}, nil)
		m.RecordUpdate(v(10), []kv.Key{"x"}, []Read{{"x", v(1)}})
		m.RecordUpdate(v(10), nil, []Read{{"w", kv.Version{}}})
		m.RecordUpdate(v(11), []kv.Key{"y", "w"}, []Read{{"y", v(2)}})
		if m.ClassifyExact([]Read{{"x", v(1)}, {"y", v(11)}}) {
			t.Fatalf("%T: a merged report's zero-version read lost its rw edge", m)
		}
	}
}

func TestExactPhantomWriterIgnored(t *testing.T) {
	// A version registered defensively for key b (never actually
	// written by that transaction) must not act as b's writer.
	m := New()
	m.RecordUpdate(v(1), []kv.Key{"a"}, nil)
	m.RecordUpdate(v(5), []kv.Key{"a"}, []Read{{"a", v(1)}})
	// Phantom: a read reports b@5, but txn 5 never wrote b.
	reads := []Read{{"a", v(1)}, {"b", v(5)}}
	if !m.ClassifyExact(reads) {
		t.Fatal("phantom writer created a false conflict")
	}
}

func TestExactStrictImpliesExact(t *testing.T) {
	// Property: on random histories with realistic read-then-write
	// update transactions, Classify (strict) == true implies
	// ClassifyExact == true, and ClassifyExact == false implies
	// Classify == false.
	r := rand.New(rand.NewSource(99))
	keys := []kv.Key{"a", "b", "c", "d", "e", "f"}
	for iter := 0; iter < 200; iter++ {
		m := New()
		latest := map[kv.Key]kv.Version{}
		written := map[kv.Version]bool{}
		for ver := uint64(1); ver <= uint64(10+r.Intn(25)); ver++ {
			var writes []kv.Key
			var reads []Read
			for _, k := range keys {
				if r.Intn(3) == 0 {
					writes = append(writes, k)
					if lv, ok := latest[k]; ok {
						reads = append(reads, Read{Key: k, Version: lv})
					}
				}
			}
			if len(writes) == 0 {
				continue
			}
			m.RecordUpdate(v(ver), writes, reads)
			written[v(ver)] = true
			for _, k := range writes {
				latest[k] = v(ver)
			}
		}
		var tReads []Read
		for _, k := range keys {
			if lv, ok := latest[k]; ok && r.Intn(2) == 0 {
				// Read either the latest or a uniformly older version.
				ver := lv
				if r.Intn(2) == 0 {
					ver = v(uint64(1 + r.Intn(int(lv.Counter))))
					// Snap to an existing version for realism.
					if !written[ver] {
						ver = lv
					}
				}
				tReads = append(tReads, Read{Key: k, Version: ver})
			}
		}
		strict := m.Classify(tReads)
		exact := m.ClassifyExact(tReads)
		if strict && !exact {
			t.Fatalf("iter %d: strict-consistent but exact-inconsistent: %v", iter, tReads)
		}
	}
}

func TestExactEmptyAndUnknown(t *testing.T) {
	m := New()
	if !m.ClassifyExact(nil) {
		t.Fatal("empty read set must be consistent")
	}
	if !m.ClassifyExact([]Read{{"ghost", v(3)}}) {
		t.Fatal("read of unknown version must classify consistent")
	}
}

// TestRecordUpdateCopiesItsInputs records one history twice: once with
// fresh slices per call, once through a single reused pair of buffers, as
// the column's commit hook does. The monitor must keep no reference to
// what it was given, so both classify the torn read {x@1, y@12} alike: 10
// overwrote x and 12 wrote y, but neither 10 nor 11 reaches 12.
func TestRecordUpdateCopiesItsInputs(t *testing.T) {
	history := []struct {
		ver    uint64
		writes []kv.Key
		reads  []Read
	}{
		{1, []kv.Key{"x", "y"}, nil},
		{10, []kv.Key{"x"}, []Read{{"x", v(1)}}},
		{11, []kv.Key{"z"}, []Read{{"z", v(0)}}},
		{12, []kv.Key{"y"}, []Read{{"y", v(1)}}},
	}
	fresh, reused := New(), New()
	var wbuf []kv.Key
	var rbuf []Read
	for _, u := range history {
		fresh.RecordUpdate(v(u.ver), slices.Clone(u.writes), slices.Clone(u.reads))
		wbuf = append(wbuf[:0], u.writes...)
		rbuf = append(rbuf[:0], u.reads...)
		reused.RecordUpdate(v(u.ver), wbuf, rbuf)
	}
	torn := []Read{{"x", v(1)}, {"y", v(12)}}
	if !fresh.ClassifyExact(torn) {
		t.Fatal("fresh slices: 10 and 12 are independent, the torn read serializes")
	}
	if !reused.ClassifyExact(torn) {
		t.Fatal("reused buffers: the monitor kept the caller's slices and recorded history was rewritten")
	}
}
