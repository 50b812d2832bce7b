// Package monitor implements the experiment-only consistency monitor of
// Fig. 2: it receives every committed update transaction from the database
// and every completed (committed or aborted) read-only transaction from
// the cache, "performs full serialization graph testing" and reports the
// rate of inconsistent transactions that committed and of consistent
// transactions that were unnecessarily aborted.
//
// Because the database serializes update transactions in version order,
// the multiversion serialization graph has a rigid backbone: update
// transactions form a chain ordered by commit version. A read-only
// transaction T that read object o at version v adds a read-from edge
// writer(v) → T and an anti-dependency edge T → overwriter(v) (the next
// writer of o). A cycle through T exists iff some overwriter of one of
// T's reads precedes (or is) the writer of another of T's reads — i.e.
// iff the version intervals [v, next(v)) of T's reads have empty
// intersection: Classify's interval test. RecordReadOnly uses the exact
// test (classifyExactLocked, exact.go), where it is only a short-circuit.
//
// The monitor holds every update of a run, so its indexes are flat and
// pointer-free: the garbage collector scans one slice header per key,
// not the history. Each key is interned to an int32 id where it enters
// the API. hist[id] is that key's versions, ascending; each entry names
// the update that wrote the key at that version and heads the list of
// updates that read it. exact.go holds the updates themselves.
package monitor

import (
	"slices"
	"sync"

	"tcache/internal/kv"
)

// Read is one (key, version) pair of a read-only transaction's read set.
type Read struct {
	Key     kv.Key
	Version kv.Version
}

// Verdict classifies one completed read-only transaction.
type Verdict struct {
	// Consistent reports whether the reads form a serializable snapshot.
	Consistent bool
	// Committed echoes whether the cache committed the transaction.
	Committed bool
}

// Stats are the monitor's counters. CommittedInconsistent is the paper's
// "inconsistency ratio" numerator; AbortedConsistent counts unnecessary
// aborts.
type Stats struct {
	CommittedConsistent   uint64
	CommittedInconsistent uint64
	AbortedConsistent     uint64
	AbortedInconsistent   uint64
	Updates               uint64
}

// Committed returns the number of committed read-only transactions.
func (s Stats) Committed() uint64 {
	return s.CommittedConsistent + s.CommittedInconsistent
}

// ReadOnly returns the total number of classified read-only transactions.
func (s Stats) ReadOnly() uint64 {
	return s.Committed() + s.AbortedConsistent + s.AbortedInconsistent
}

// InconsistencyRatio returns committed-inconsistent transactions as a
// percentage of all committed transactions.
func (s Stats) InconsistencyRatio() float64 {
	if c := s.Committed(); c > 0 {
		return 100 * float64(s.CommittedInconsistent) / float64(c)
	}
	return 0
}

// DetectionRatio returns the percentage of actually-inconsistent
// transactions that T-Cache caught (aborted) out of all transactions that
// were inconsistent at completion (caught + slipped through). This is the
// y-axis of Fig. 3.
func (s Stats) DetectionRatio() float64 {
	total := s.AbortedInconsistent + s.CommittedInconsistent
	if total == 0 {
		return 0
	}
	return 100 * float64(s.AbortedInconsistent) / float64(total)
}

// Monitor is safe for concurrent use.
type Monitor struct {
	mu sync.Mutex
	// ids interns keys; hist[id] is key id's version history.
	ids  map[kv.Key]int32
	hist [][]entry
	// exact holds the updates and the classification scratch (exact.go).
	exact exactState
	stats Stats
}

// entry is one version of one key.
type entry struct {
	ver kv.Version
	// writer is the index in exact.updates of the update that wrote the
	// key at ver, or -1 (a seed, or a phantom version registered by
	// RecordReadOnly).
	writer int32
	// readers heads the list in exact.links of the updates that read the
	// key at ver, or is -1.
	readers int32
}

// keyRead is a read with its key interned; id is -1 for a key the
// monitor has never seen.
type keyRead struct {
	ver kv.Version
	id  int32
}

// New creates an empty monitor.
func New() *Monitor {
	return &Monitor{ids: make(map[kv.Key]int32)}
}

// Seed registers an object's initial version so reads of never-updated
// objects classify correctly.
func (m *Monitor) Seed(key kv.Key, version kv.Version) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !version.IsZero() {
		m.insertLocked(m.intern(key), version)
	}
}

// RecordUpdate registers a committed update transaction: the commit
// version, the keys written, and the versions read (the read set feeds
// the exact conflict graph; pass nil if unknown, which conservatively
// drops rw edges out of this transaction). The database's commit hook
// guarantees calls arrive in version order, but the monitor tolerates
// any order, and one version reported in several calls. The monitor
// keeps no reference to writes or reads, so a caller may reuse their
// backing arrays.
func (m *Monitor) RecordUpdate(version kv.Version, writes []kv.Key, reads []Read) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Updates++
	m.recordLocked(version, writes, reads)
}

// RecordReadOnly classifies a completed read-only transaction with exact
// serialization graph testing and folds it into the statistics. Reads of
// versions the monitor has never heard of (e.g. un-seeded initial state)
// are registered defensively.
func (m *Monitor) RecordReadOnly(reads []Read, committed bool) Verdict {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.exact.rs[:0]
	for _, r := range reads {
		id := m.intern(r.Key)
		if !r.Version.IsZero() {
			m.insertLocked(id, r.Version)
		}
		rs = append(rs, keyRead{r.Version, id})
	}
	m.exact.rs = rs
	consistent := m.classifyExactLocked(rs)
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

// Classify runs the strict interval test — does the read set fit the
// database's own commit order? — without touching the statistics. It is
// conservative: a strictly-consistent read set is exactly consistent,
// but not vice versa (see exact.go); RecordReadOnly uses ClassifyExact.
func (m *Monitor) Classify(reads []Read) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.consistentLocked(m.lookupLocked(reads))
}

// Stats returns a snapshot of the counters.
func (m *Monitor) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// consistentLocked is the interval test: the snapshot {(k_i, v_i)} is
// serializable iff the intervals [v_i, next(k_i, v_i)) share a point,
// i.e. iff max_i(v_i) < min_i(next(k_i, v_i)).
func (m *Monitor) consistentLocked(rs []keyRead) bool {
	var maxRead kv.Version
	for _, r := range rs {
		maxRead = kv.Max(maxRead, r.ver)
	}
	for _, r := range rs {
		if e, ok := m.nextLocked(r.id, r.ver); ok && !maxRead.Less(e.ver) {
			return false
		}
	}
	return true
}

// lookupLocked copies reads, with their key ids, into the scratch read
// set without registering keys: a key the monitor never saw gets id -1.
func (m *Monitor) lookupLocked(reads []Read) []keyRead {
	rs := m.exact.rs[:0]
	for _, r := range reads {
		id, ok := m.ids[r.Key]
		if !ok {
			id = -1
		}
		rs = append(rs, keyRead{r.Version, id})
	}
	m.exact.rs = rs
	return rs
}

// intern returns key's id, registering it with an empty history.
func (m *Monitor) intern(key kv.Key) int32 {
	id, ok := m.ids[key]
	if !ok {
		id = int32(len(m.hist))
		m.ids[key] = id
		m.hist = append(m.hist, nil)
	}
	return id
}

// seek returns the index of the first entry of h at or after v, and
// whether it is v. Asks are mostly for the newest versions: it gallops
// back from the tail, then binary-searches, in O(log d) for d back.
func seek(h []entry, v kv.Version) (int, bool) {
	lo, hi := 0, len(h) // h[hi:] is at or after v; h[:lo] is before it
	for step := 1; hi > 0; step <<= 1 {
		p := max(hi-step, 0)
		if h[p].ver.Less(v) {
			lo = p + 1
			break
		}
		hi = p
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h[mid].ver.Less(v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(h) && h[lo].ver == v
}

// insertLocked adds the non-zero version v to key id's history
// (idempotent) and returns its index there. Readers that were recorded
// before the version existed join the new entry. The zero version is not
// tracked: it denotes "before any write", which the interval test
// handles via the key's first real version.
func (m *Monitor) insertLocked(id int32, v kv.Version) int {
	h := m.hist[id]
	i, found := seek(h, v)
	if found {
		return i
	}
	e := entry{ver: v, writer: -1, readers: -1}
	if head, ok := m.exact.pending[keyRead{v, id}]; ok {
		e.readers = head
		delete(m.exact.pending, keyRead{v, id})
	}
	m.hist[id] = slices.Insert(h, i, e)
	return i
}

// nextLocked returns the first entry of key id's history strictly after
// v. For the zero version (key read before any write) that is the key's
// first version.
func (m *Monitor) nextLocked(id int32, v kv.Version) (entry, bool) {
	if id < 0 {
		return entry{}, false
	}
	h := m.hist[id]
	i, found := seek(h, v)
	if found {
		i++
	}
	if i == len(h) {
		return entry{}, false
	}
	return h[i], true
}
