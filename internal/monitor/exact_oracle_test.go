package monitor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tcache/internal/kv"
)

// refClassifyExact is the exact classifier as first written: a map of
// writer indices and a fresh visited map per classification. It reads the
// monitor's indexes directly, so it is the oracle for the classifier's
// scratch handling, not for the indexes themselves.
func refClassifyExact(m *Monitor, reads []Read) bool {
	if m.consistentLocked(reads) {
		return true
	}
	m.exact.init()
	writerIdx := make(map[int]struct{}, len(reads))
	var maxW kv.Version
	for _, r := range reads {
		if r.Version.IsZero() {
			continue
		}
		if i, ok := m.exact.byVer[r.Version]; ok {
			if !containsWrite(m.exact.updates[i].writes, r.Key) {
				continue
			}
			writerIdx[i] = struct{}{}
			if maxW.Less(r.Version) {
				maxW = r.Version
			}
		}
	}
	if len(writerIdx) == 0 {
		return true
	}
	visited := make(map[int]bool)
	for _, r := range reads {
		next, ok := m.nextVersionLocked(r.Key, r.Version)
		if !ok || maxW.Less(next) {
			continue
		}
		oi, ok := m.exact.byVer[next]
		if !ok {
			continue
		}
		if refReaches(m, oi, writerIdx, maxW, visited) {
			return false
		}
	}
	return true
}

func refReaches(m *Monitor, start int, targets map[int]struct{}, maxVer kv.Version, visited map[int]bool) bool {
	stack := []int{start}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, hit := targets[u]; hit {
			return true
		}
		if visited[u] {
			continue
		}
		visited[u] = true
		txn := m.exact.updates[u]
		for _, k := range txn.writes {
			if nv, ok := m.nextVersionLocked(k, txn.version); ok && !maxVer.Less(nv) {
				if i, ok := m.exact.byVer[nv]; ok {
					stack = append(stack, i)
				}
			}
			for _, i := range m.exact.readers[DepEntry{Key: k, Version: txn.version}] {
				if !maxVer.Less(m.exact.updates[i].version) {
					stack = append(stack, i)
				}
			}
		}
		for _, r := range txn.reads {
			if nv, ok := m.nextVersionLocked(r.Key, r.Version); ok && !maxVer.Less(nv) {
				if i, ok := m.exact.byVer[nv]; ok && i != u {
					stack = append(stack, i)
				}
			}
		}
	}
	return false
}

// refRecordReadOnly is RecordReadOnly over refClassifyExact.
func refRecordReadOnly(m *Monitor, reads []Read, committed bool) Verdict {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range reads {
		m.insertVersionLocked(r.Key, r.Version)
	}
	consistent := refClassifyExact(m, reads)
	switch {
	case committed && consistent:
		m.stats.CommittedConsistent++
	case committed && !consistent:
		m.stats.CommittedInconsistent++
	case !committed && consistent:
		m.stats.AbortedConsistent++
	default:
		m.stats.AbortedInconsistent++
	}
	return Verdict{Consistent: consistent, Committed: committed}
}

// oracleHistory drives a monitor and a reference twin through one seeded
// random history and checks every ClassifyExact and RecordReadOnly
// verdict against the reference classifier.
type oracleHistory struct {
	t      *testing.T
	seed   int64
	r      *rand.Rand
	m, ref *Monitor
	// latest[k] is every version written to key k, ascending.
	latest map[kv.Key][]kv.Version
	next   uint64
	// reordered and cyclic count the version-torn read sets the graph
	// search passed and failed, so a history that never reaches the search
	// cannot pass for coverage.
	reordered, cyclic int
}

func newOracleHistory(t *testing.T, seed int64) *oracleHistory {
	h := &oracleHistory{t: t, seed: seed, r: rand.New(rand.NewSource(seed)),
		m: New(), ref: New(), latest: map[kv.Key][]kv.Version{}}
	for i := 0; i < oracleKeys; i++ {
		k := oracleKey(i)
		h.m.Seed(k, kv.Version{Counter: 1})
		h.ref.Seed(k, kv.Version{Counter: 1})
		h.latest[k] = []kv.Version{{Counter: 1}}
	}
	h.next = 2
	return h
}

const oracleKeys = 8

func oracleKey(i int) kv.Key { return kv.Key(fmt.Sprintf("k%d", i)) }

func (h *oracleHistory) both(f func(m *Monitor)) { f(h.m); f(h.ref) }

// pickVersion returns a version of k the history wrote, biased towards
// recent ones.
func (h *oracleHistory) pickVersion(k kv.Key) kv.Version {
	vs := h.latest[k]
	back := h.r.Intn(len(vs))
	if h.r.Intn(2) == 0 {
		back = h.r.Intn(min(3, len(vs)))
	}
	return vs[len(vs)-1-back]
}

// update builds one update transaction: 1–3 written keys, each read first,
// plus 0–2 read-only keys.
func (h *oracleHistory) update() (kv.Version, []kv.Key, []Read) {
	ver := kv.Version{Counter: h.next, Node: uint32(h.r.Intn(2))}
	h.next += 1 + uint64(h.r.Intn(2))
	var writes []kv.Key
	var reads []Read
	for n := 1 + h.r.Intn(3); len(writes) < n; {
		k := oracleKey(h.r.Intn(oracleKeys))
		if containsWrite(writes, k) {
			continue
		}
		writes = append(writes, k)
		reads = append(reads, Read{Key: k, Version: h.pickVersion(k)})
	}
	for n := h.r.Intn(3); n > 0; n-- {
		k := oracleKey(h.r.Intn(oracleKeys))
		reads = append(reads, Read{Key: k, Version: h.pickVersion(k)})
	}
	for _, k := range writes {
		h.latest[k] = append(h.latest[k], ver)
	}
	return ver, writes, reads
}

// readSet builds one read-only transaction's reads: mostly versions the
// history wrote, sometimes the zero version or a phantom version no update
// wrote.
func (h *oracleHistory) readSet() []Read {
	reads := make([]Read, 2+h.r.Intn(4))
	for i := range reads {
		k := oracleKey(h.r.Intn(oracleKeys))
		switch h.r.Intn(12) {
		case 0:
			reads[i] = Read{Key: k}
		case 1:
			reads[i] = Read{Key: k, Version: kv.Version{Counter: h.next - 1, Node: 7}}
		default:
			reads[i] = Read{Key: k, Version: h.pickVersion(k)}
		}
	}
	return reads
}

func (h *oracleHistory) check(step int) {
	reads := h.readSet()
	strict := h.m.Classify(reads)
	h.m.mu.Lock()
	want := refClassifyExact(h.m, reads)
	h.m.mu.Unlock()
	if got := h.m.ClassifyExact(reads); got != want {
		h.t.Fatalf("seed %d step %d: ClassifyExact(%v) = %v, reference %v", h.seed, step, reads, got, want)
	}
	committed := h.r.Intn(2) == 0
	got := h.m.RecordReadOnly(reads, committed)
	ref := refRecordReadOnly(h.ref, reads, committed)
	if got != ref {
		h.t.Fatalf("seed %d step %d: RecordReadOnly(%v) = %+v, reference %+v", h.seed, step, reads, got, ref)
	}
	switch {
	case strict:
	case got.Consistent:
		h.reordered++
	default:
		h.cyclic++
	}
}

// run plays steps events: in-order and held-back (out-of-order) updates,
// updates reported in two split calls, classifications, and one
// TrimBelow.
func (h *oracleHistory) run(steps int) {
	var held []func(m *Monitor)
	trimAt := steps/2 + h.r.Intn(steps/4)
	for step := 0; step < steps; step++ {
		switch e := h.r.Intn(10); {
		case e < 4:
			ver, writes, reads := h.update()
			rec := func(m *Monitor) { m.RecordUpdate(ver, writes, reads) }
			if len(writes) > 1 && h.r.Intn(3) == 0 {
				// One version, reported in two calls.
				cut := 1 + h.r.Intn(len(writes)-1)
				rcut := min(cut, len(reads))
				rec = func(m *Monitor) {
					m.RecordUpdate(ver, writes[:cut:cut], reads[:rcut:rcut])
					m.RecordUpdate(ver, writes[cut:], reads[rcut:])
				}
			}
			if h.r.Intn(4) == 0 {
				held = append(held, rec) // delivered later, out of order
			} else {
				h.both(rec)
			}
		case e < 5 && len(held) > 0:
			i := h.r.Intn(len(held))
			h.both(held[i])
			held = append(held[:i], held[i+1:]...)
		default:
			h.check(step)
		}
		if step == trimAt {
			for _, rec := range held {
				h.both(rec)
			}
			held = nil
			w := kv.Version{Counter: h.next / 2}
			h.both(func(m *Monitor) { m.TrimBelow(w) })
		}
	}
	if a, b := h.m.Stats(), h.ref.Stats(); a != b {
		h.t.Fatalf("seed %d: stats %+v, reference %+v", h.seed, a, b)
	}
}

// TestExactMatchesReference is the differential oracle for the exact
// classifier: every verdict over seeded random histories — out-of-order
// RecordUpdate calls, one version reported in two calls, phantom and zero
// versions in read sets, and a TrimBelow midway — equals the map-based
// reference's.
func TestExactMatchesReference(t *testing.T) {
	reordered, cyclic := 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		h := newOracleHistory(t, seed)
		h.run(400)
		reordered += h.reordered
		cyclic += h.cyclic
	}
	if reordered < 100 || cyclic < 100 {
		t.Fatalf("graph search passed %d and failed %d torn read sets: the histories do not exercise it", reordered, cyclic)
	}
	t.Logf("torn read sets: %d serializable by reordering, %d cyclic", reordered, cyclic)
}

// TestExactEpochWrap checks the visited marks across a wrap of their
// epoch counter. On a transitive conflict chain, whose search must pass
// through the overwriter it starts from: a wrap before any mark exists
// must not leave an epoch every unmarked node matches, and a second wrap
// straight after it must clear the marks the first stamped, or the
// restarted epoch finds the chain already visited. Then, over random
// histories, every verdict after a wrap equals the reference's.
func TestExactEpochWrap(t *testing.T) {
	m := New()
	m.RecordUpdate(v(1), []kv.Key{"x"}, nil)
	m.RecordUpdate(v(2), []kv.Key{"z"}, nil)
	m.RecordUpdate(v(3), []kv.Key{"y"}, nil)
	m.RecordUpdate(v(10), []kv.Key{"x", "z"}, []Read{{"x", v(1)}, {"z", v(2)}})
	m.RecordUpdate(v(11), []kv.Key{"z"}, []Read{{"z", v(10)}})
	m.RecordUpdate(v(12), []kv.Key{"y"}, []Read{{"z", v(11)}})
	torn := []Read{{"x", v(1)}, {"y", v(12)}}
	for i, wrap := range []bool{true, true, false} {
		if wrap {
			m.exact.epoch = math.MaxUint32
		}
		if m.ClassifyExact(torn) {
			t.Fatalf("classification %d (epoch now %d): chain 10 → 11 → 12 not found", i, m.exact.epoch)
		}
	}

	for seed := int64(1); seed <= 5; seed++ {
		h := newOracleHistory(t, seed)
		h.run(300)
		h.m.exact.epoch = math.MaxUint32 - 5
		h.run(300)
		if e := h.m.exact.epoch; e >= math.MaxUint32-5 || e == 0 {
			t.Fatalf("seed %d: epoch %d never wrapped", seed, e)
		}
	}
}

// TestClassifyExactAllocs gates the exact classifier on a version-torn
// read set against a 10k-transaction history (BenchmarkMonitorClassifyExact's
// set-up): once its scratch has grown, a classification allocates nothing.
func TestClassifyExactAllocs(t *testing.T) {
	key := func(i int) kv.Key { return kv.Key(fmt.Sprintf("o%06d", i)) }
	m := New()
	for c := uint64(1); c <= 10000; c++ {
		k := key(int(c) % 100)
		var reads []Read
		if c > 100 {
			reads = []Read{{Key: k, Version: kv.Version{Counter: c - 100}}}
		}
		m.RecordUpdate(kv.Version{Counter: c}, []kv.Key{k}, reads)
	}
	reads := []Read{
		{Key: key(0), Version: kv.Version{Counter: 9500}},
		{Key: key(1), Version: kv.Version{Counter: 9901}},
		{Key: key(2), Version: kv.Version{Counter: 9902}},
	}
	if m.Classify(reads) {
		t.Fatal("read set is strict-consistent; the gate would not reach the graph search")
	}
	if n := testing.AllocsPerRun(200, func() { m.ClassifyExact(reads) }); n != 0 {
		t.Fatalf("ClassifyExact allocates %v times per torn read set, want 0", n)
	}
}
