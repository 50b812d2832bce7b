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
// intersection: Classify's interval test, which CheckSGT restates as an
// explicit graph search (tests cross-check the two). RecordReadOnly uses
// the exact test (classifyExactLocked), where it is only a short-circuit.
package monitor

import (
	"sort"
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
	// hist[k] is the ordered version history of k (ascending).
	hist map[kv.Key][]kv.Version
	// order is every update-transaction version in commit order; it is
	// the serialization backbone used by the strict-order graph search
	// (CheckSGT).
	order []kv.Version
	// exact holds the conflict-graph indexes for exact serialization
	// graph testing (exact.go).
	exact exactState
	stats Stats
}

// New creates an empty monitor.
func New() *Monitor {
	return &Monitor{hist: make(map[kv.Key][]kv.Version)}
}

// Seed registers an object's initial version so reads of never-updated
// objects classify correctly.
func (m *Monitor) Seed(key kv.Key, version kv.Version) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.insertVersionLocked(key, version)
}

// RecordUpdate registers a committed update transaction: the commit
// version, the keys written, and the versions read (the read set feeds
// the exact conflict graph; pass nil if unknown, which conservatively
// drops rw edges out of this transaction). The database's commit hook
// guarantees calls arrive in version order, but the monitor tolerates
// any order.
func (m *Monitor) RecordUpdate(version kv.Version, writes []kv.Key, reads []Read) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Updates++
	for _, k := range writes {
		m.insertVersionLocked(k, version)
	}
	m.exact.record(version, writes, reads)
	if n := len(m.order); n == 0 || m.order[n-1].Less(version) {
		m.order = append(m.order, version)
	} else if i := sort.Search(n, func(i int) bool { return !m.order[i].Less(version) }); i == n || m.order[i] != version {
		m.order = append(m.order, kv.Version{})
		copy(m.order[i+1:], m.order[i:])
		m.order[i] = version
	}
}

// RecordReadOnly classifies a completed read-only transaction with exact
// serialization graph testing and folds it into the statistics. Reads of
// versions the monitor has never heard of (e.g. un-seeded initial state)
// are registered defensively.
func (m *Monitor) RecordReadOnly(reads []Read, committed bool) Verdict {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range reads {
		m.insertVersionLocked(r.Key, r.Version)
	}
	consistent := m.classifyExactLocked(reads)
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
	return m.consistentLocked(reads)
}

// Stats returns a snapshot of the counters.
func (m *Monitor) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// ResetStats zeroes the counters, keeping version histories. The
// convergence experiments use it to measure per-window rates.
func (m *Monitor) ResetStats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.stats
	m.stats = Stats{}
	return out
}

// consistentLocked is the interval test: the snapshot {(k_i, v_i)} is
// serializable iff the intervals [v_i, next(k_i, v_i)) share a point,
// i.e. iff max_i(v_i) < min_i(next(k_i, v_i)).
func (m *Monitor) consistentLocked(reads []Read) bool {
	if len(reads) == 0 {
		return true
	}
	maxRead := reads[0].Version
	for _, r := range reads[1:] {
		maxRead = kv.Max(maxRead, r.Version)
	}
	for _, r := range reads {
		next, ok := m.nextVersionLocked(r.Key, r.Version)
		if ok && !maxRead.Less(next) {
			return false
		}
	}
	return true
}

// insertVersionLocked adds version to key's ordered history (idempotent).
// The zero version (never-written) is not tracked: it denotes "before any
// write", which the interval test handles via the first real version.
func (m *Monitor) insertVersionLocked(key kv.Key, version kv.Version) {
	if version.IsZero() {
		return
	}
	h := m.hist[key]
	n := len(h)
	if n == 0 || h[n-1].Less(version) {
		m.hist[key] = append(h, version)
		return
	}
	i := sort.Search(n, func(i int) bool { return !h[i].Less(version) })
	if i < n && h[i] == version {
		return
	}
	h = append(h, kv.Version{})
	copy(h[i+1:], h[i:])
	h[i] = version
	m.hist[key] = h
}

// nextVersionLocked returns the smallest version of key strictly greater
// than v, if any. For the zero version (key read before any write) that
// is the key's first version.
func (m *Monitor) nextVersionLocked(key kv.Key, v kv.Version) (kv.Version, bool) {
	h := m.hist[key]
	i := sort.Search(len(h), func(i int) bool { return v.Less(h[i]) })
	if i == len(h) {
		return kv.Version{}, false
	}
	return h[i], true
}

// HistoryLen returns the number of recorded versions for key (testing and
// introspection).
func (m *Monitor) HistoryLen(key kv.Key) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.hist[key])
}

// TrimBelow discards history entries strictly older than watermark,
// always keeping each key's latest version, and drops trimmed update
// versions from the serialization backbone. Long-running deployments call
// it periodically; classifications of transactions that read versions
// older than the watermark may then be (conservatively) wrong, so trim
// only below the oldest in-flight transaction.
func (m *Monitor) TrimBelow(watermark kv.Version) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, h := range m.hist {
		i := sort.Search(len(h), func(i int) bool { return !h[i].Less(watermark) })
		if i >= len(h) {
			i = len(h) - 1 // keep the latest
		}
		if i > 0 {
			m.hist[k] = append([]kv.Version(nil), h[i:]...)
		}
	}
	i := sort.Search(len(m.order), func(i int) bool { return !m.order[i].Less(watermark) })
	if i > 0 {
		m.order = append([]kv.Version(nil), m.order[i:]...)
	}
	m.trimExactLocked(watermark)
}
