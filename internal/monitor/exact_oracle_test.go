package monitor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"tcache/internal/kv"
)

// refMonitor is the map-based monitor the flat layout replaced, kept as
// the differential oracle: per-key version histories, a version → update
// index map, a (key, version) → readers map and a fresh visited map per
// classification. It copies what RecordUpdate is given, keeps every
// report's zero-version reads (they are rw edges to the key's first
// writer), and keeps a rule of the original that verdicts depend on: a
// version's writer is looked up by version alone, so a phantom can name
// an update that never wrote the key.
type refMonitor struct {
	hist    map[kv.Key][]kv.Version
	updates []refUpdate
	byVer   map[kv.Version]int
	readers map[Read][]int
	stats   Stats
}

type refUpdate struct {
	version kv.Version
	writes  []kv.Key
	reads   []Read
}

func newRefMonitor() *refMonitor {
	return &refMonitor{hist: map[kv.Key][]kv.Version{}, byVer: map[kv.Version]int{}, readers: map[Read][]int{}}
}

func (m *refMonitor) Seed(key kv.Key, version kv.Version) { m.insert(key, version) }

func (m *refMonitor) Stats() Stats { return m.stats }

func (m *refMonitor) insert(key kv.Key, version kv.Version) {
	if version.IsZero() {
		return
	}
	h := m.hist[key]
	i := sort.Search(len(h), func(i int) bool { return !h[i].Less(version) })
	if i < len(h) && h[i] == version {
		return
	}
	m.hist[key] = slices.Insert(h, i, version)
}

func (m *refMonitor) next(key kv.Key, v kv.Version) (kv.Version, bool) {
	h := m.hist[key]
	i := sort.Search(len(h), func(i int) bool { return v.Less(h[i]) })
	if i == len(h) {
		return kv.Version{}, false
	}
	return h[i], true
}

func (m *refMonitor) RecordUpdate(version kv.Version, writes []kv.Key, reads []Read) {
	m.stats.Updates++
	for _, k := range writes {
		m.insert(k, version)
	}
	i, dup := m.byVer[version]
	if dup {
		u := &m.updates[i]
		for _, k := range writes {
			if !slices.Contains(u.writes, k) {
				u.writes = append(u.writes, k)
			}
		}
		u.reads = append(u.reads, reads...)
	} else {
		i = sort.Search(len(m.updates), func(i int) bool { return !m.updates[i].version.Less(version) })
		m.updates = slices.Insert(m.updates, i, refUpdate{version, slices.Clone(writes), slices.Clone(reads)})
		for v, idx := range m.byVer {
			if idx >= i {
				m.byVer[v] = idx + 1
			}
		}
		for _, idxs := range m.readers {
			for j, idx := range idxs {
				if idx >= i {
					idxs[j] = idx + 1
				}
			}
		}
		m.byVer[version] = i
	}
	for _, r := range reads {
		if !r.Version.IsZero() {
			m.readers[r] = append(m.readers[r], i)
		}
	}
}

func (m *refMonitor) RecordReadOnly(reads []Read, committed bool) Verdict {
	for _, r := range reads {
		m.insert(r.Key, r.Version)
	}
	consistent := m.ClassifyExact(reads)
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

func (m *refMonitor) ClassifyExact(reads []Read) bool {
	// The interval test: a point common to every [v, next(v)) serializes.
	var maxRead kv.Version
	for _, r := range reads {
		maxRead = kv.Max(maxRead, r.Version)
	}
	torn := false
	for _, r := range reads {
		if next, ok := m.next(r.Key, r.Version); ok && !maxRead.Less(next) {
			torn = true
		}
	}
	if !torn {
		return true
	}
	writers := map[int]bool{}
	var maxW kv.Version
	for _, r := range reads {
		if i, ok := m.byVer[r.Version]; ok && !r.Version.IsZero() && slices.Contains(m.updates[i].writes, r.Key) {
			writers[i] = true
			maxW = kv.Max(maxW, r.Version)
		}
	}
	if len(writers) == 0 {
		return true
	}
	visited := map[int]bool{}
	for _, r := range reads {
		next, ok := m.next(r.Key, r.Version)
		if !ok || maxW.Less(next) {
			continue
		}
		if oi, ok := m.byVer[next]; ok && m.reaches(oi, writers, maxW, visited) {
			return false
		}
	}
	return true
}

func (m *refMonitor) reaches(start int, targets map[int]bool, maxVer kv.Version, visited map[int]bool) bool {
	stack := []int{start}
	push := func(v kv.Version, ok bool, not int) {
		if i, found := m.byVer[v]; ok && found && i != not && !maxVer.Less(v) {
			stack = append(stack, i)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if targets[u] {
			return true
		}
		if visited[u] {
			continue
		}
		visited[u] = true
		txn := m.updates[u]
		for _, k := range txn.writes {
			nv, ok := m.next(k, txn.version)
			push(nv, ok, -1) // ww
			for _, i := range m.readers[Read{k, txn.version}] {
				push(m.updates[i].version, true, -1) // wr
			}
		}
		for _, r := range txn.reads {
			nv, ok := m.next(r.Key, r.Version)
			push(nv, ok, u) // rw
		}
	}
	return false
}

// recorder is what the oracle drives: a Monitor or its reference.
type recorder interface {
	Seed(kv.Key, kv.Version)
	RecordUpdate(kv.Version, []kv.Key, []Read)
	RecordReadOnly([]Read, bool) Verdict
	ClassifyExact([]Read) bool
	Stats() Stats
}

// oracleHistory drives a monitor and a reference twin through one seeded
// random history and checks every ClassifyExact and RecordReadOnly
// verdict against the reference classifier.
type oracleHistory struct {
	t    *testing.T
	seed int64
	r    *rand.Rand
	m    *Monitor
	ref  *refMonitor
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
		m: New(), ref: newRefMonitor(), latest: map[kv.Key][]kv.Version{}}
	for i := 0; i < oracleSeeded; i++ {
		k := oracleKey(i)
		h.m.Seed(k, kv.Version{Counter: 1})
		h.ref.Seed(k, kv.Version{Counter: 1})
		h.latest[k] = []kv.Version{{Counter: 1}}
	}
	h.next = 2
	return h
}

// oracleKeys keys, of which the first oracleSeeded have a seed version:
// the others are read at the zero version until their first write.
const oracleKeys, oracleSeeded = 8, 6

func oracleKey(i int) kv.Key { return kv.Key(fmt.Sprintf("k%d", i)) }

func (h *oracleHistory) both(f func(m recorder)) { f(h.m); f(h.ref) }

// pickVersion returns a version of k the history wrote, biased towards
// recent ones.
func (h *oracleHistory) pickVersion(k kv.Key) kv.Version {
	vs := h.latest[k]
	if len(vs) == 0 {
		return kv.ZeroVersion
	}
	back := h.r.Intn(len(vs))
	if h.r.Intn(2) == 0 {
		back = h.r.Intn(min(3, len(vs)))
	}
	return vs[len(vs)-1-back]
}

// update builds one update transaction: 1–3 written keys, each read first
// (sometimes before any write: the zero version), plus 0–2 read-only keys.
func (h *oracleHistory) update() (kv.Version, []kv.Key, []Read) {
	ver := kv.Version{Counter: h.next, Node: uint32(h.r.Intn(2))}
	h.next += 1 + uint64(h.r.Intn(2))
	var writes []kv.Key
	var reads []Read
	for n := 1 + h.r.Intn(3); len(writes) < n; {
		k := oracleKey(h.r.Intn(oracleKeys))
		if slices.Contains(writes, k) {
			continue
		}
		writes = append(writes, k)
		rv := h.pickVersion(k)
		if h.r.Intn(10) == 0 {
			rv = kv.ZeroVersion
		}
		reads = append(reads, Read{Key: k, Version: rv})
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
// history wrote, sometimes the zero version, a phantom version no update
// wrote, or a phantom version an update wrote to another key.
func (h *oracleHistory) readSet() []Read {
	reads := make([]Read, 2+h.r.Intn(4))
	for i := range reads {
		k := oracleKey(h.r.Intn(oracleKeys))
		switch h.r.Intn(12) {
		case 0:
			reads[i] = Read{Key: k}
		case 1:
			reads[i] = Read{Key: k, Version: kv.Version{Counter: h.next - 1, Node: 7}}
		case 2:
			// Another key's version: a phantom for k that names an update.
			reads[i] = Read{Key: k, Version: h.pickVersion(oracleKey(h.r.Intn(oracleKeys)))}
		default:
			reads[i] = Read{Key: k, Version: h.pickVersion(k)}
		}
	}
	return reads
}

func (h *oracleHistory) check(step int) {
	reads := h.readSet()
	strict := h.m.Classify(reads)
	want := h.ref.ClassifyExact(reads)
	if got := h.m.ClassifyExact(reads); got != want {
		h.t.Fatalf("seed %d step %d: ClassifyExact(%v) = %v, reference %v", h.seed, step, reads, got, want)
	}
	committed := h.r.Intn(2) == 0
	got := h.m.RecordReadOnly(reads, committed)
	ref := h.ref.RecordReadOnly(reads, committed)
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
// updates reported in two split calls (the second sometimes held back),
// and classifications.
func (h *oracleHistory) run(steps int) {
	var held []func(m recorder)
	for step := 0; step < steps; step++ {
		switch e := h.r.Intn(10); {
		case e < 4:
			ver, writes, reads := h.update()
			rec := func(m recorder) { m.RecordUpdate(ver, writes, reads) }
			if len(writes) > 1 && h.r.Intn(3) == 0 {
				// One version, reported in two calls.
				cut := 1 + h.r.Intn(len(writes)-1)
				rcut := min(cut, len(reads))
				first := func(m recorder) { m.RecordUpdate(ver, writes[:cut:cut], reads[:rcut:rcut]) }
				second := func(m recorder) { m.RecordUpdate(ver, writes[cut:], reads[rcut:]) }
				if h.r.Intn(2) == 0 {
					// The second report comes late, after other versions.
					h.both(first)
					held = append(held, second)
					continue
				}
				rec = func(m recorder) { first(m); second(m) }
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
	}
	if a, b := h.m.Stats(), h.ref.Stats(); a != b {
		h.t.Fatalf("seed %d: stats %+v, reference %+v", h.seed, a, b)
	}
}

// TestExactMatchesReference is the differential oracle for the monitor:
// over seeded random histories — out-of-order RecordUpdate calls, one
// version reported in two calls, phantom and zero versions in read sets —
// every ClassifyExact and RecordReadOnly verdict, and the final Stats,
// equal those of refMonitor fed the same events.
func TestExactMatchesReference(t *testing.T) {
	reordered, cyclic := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		h := newOracleHistory(t, seed)
		h.run(400)
		reordered += h.reordered
		cyclic += h.cyclic
	}
	if reordered < 500 || cyclic < 500 {
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
