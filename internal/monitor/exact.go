package monitor

import (
	"slices"
	"sort"

	"tcache/internal/kv"
)

// This file implements exact, conflict-based serialization graph testing.
//
// The interval test (monitor.go) asks whether a read set fits the
// database's own commit order — strict serializability with respect to
// version order. Cache-serializability (Definition 1) is weaker: the
// read-only transaction may be placed in ANY serialization equivalent to
// the update history, and update transactions that do not conflict may be
// reordered. A read set {x@old, y@new} where x's overwriter and y's
// writer are conflict-independent is exactly such a case: torn by version
// numbers, serializable in reality.
//
// The exact test builds the real conflict relation: update transaction u
// precedes w (u → w) when w overwrites a key u wrote (ww), w reads a
// version u wrote (wr), or w overwrites a version u read (rw). Edges only
// point from lower to higher commit versions (strict 2PL). A read-only
// transaction T with reads {(k_i, v_i)} must come after each writer
// W_i = writer(v_i) and before each overwriter O_i = writer(next(k_i,
// v_i)); T is serializable iff no O_i reaches any W_j through the
// conflict graph (including O_i == W_j).
//
// Because every conflict edge respects version order, "interval
// consistent" implies "exactly consistent", so the cheap interval test
// short-circuits the common case and the graph search runs only on
// version-torn read sets.
//
// A classification allocates nothing once its scratch has grown: the
// writer set, the DFS stack and the visited marks live in exactState and
// are reused by every classification, which is safe because all of them
// run under the monitor's one mutex. Visited marks are epoch stamps in a
// slice parallel to updates: a classification takes a fresh epoch, so
// marks left by earlier ones read as unvisited without being cleared
// (they are zeroed only when the epoch counter wraps).

// updateTxn is one committed update transaction's access sets.
type updateTxn struct {
	version kv.Version
	writes  []kv.Key
	reads   []Read
}

// exactState holds the conflict-graph indexes, embedded in Monitor.
type exactState struct {
	// updates is ordered by version (commit hooks deliver in order; the
	// insert path tolerates stragglers).
	updates []updateTxn
	// byVer maps a commit version to its index in updates.
	byVer map[kv.Version]int
	// readers maps a (key, version) pair to the indices of update
	// transactions that read exactly that version (wr successors).
	readers map[DepEntry][]int

	// Classification scratch (see the file comment). marks[i] == epoch
	// means updates[i] was visited by the current classification; marks
	// is kept as long as updates.
	marks   []uint32
	epoch   uint32
	writers []int
	stack   []int
}

// nextEpoch starts a classification's visited set.
func (s *exactState) nextEpoch() uint32 {
	s.epoch++
	if s.epoch == 0 {
		clear(s.marks)
		s.epoch = 1
	}
	return s.epoch
}

func (s *exactState) init() {
	if s.byVer == nil {
		s.byVer = make(map[kv.Version]int)
		s.readers = make(map[DepEntry][]int)
	}
}

// record registers an update transaction's access sets. Out-of-order
// versions are inserted at their sorted position (rare: only when hooks
// race, which the db's commitMu prevents).
func (s *exactState) record(version kv.Version, writes []kv.Key, reads []Read) {
	s.init()
	if i, dup := s.byVer[version]; dup {
		// Merge: callers may report one transaction's writes in pieces.
		u := &s.updates[i]
		for _, k := range writes {
			if !containsWrite(u.writes, k) {
				u.writes = append(u.writes, k)
			}
		}
		for _, r := range reads {
			if r.Version.IsZero() {
				continue
			}
			u.reads = append(u.reads, r)
			de := DepEntry{Key: r.Key, Version: r.Version}
			s.readers[de] = append(s.readers[de], i)
		}
		return
	}
	u := updateTxn{version: version, writes: writes, reads: reads}
	n := len(s.updates)
	s.marks = append(s.marks, 0)
	if n == 0 || s.updates[n-1].version.Less(version) {
		s.updates = append(s.updates, u)
		s.byVer[version] = n
	} else {
		// Marks are only compared with a later classification's fresh
		// epoch, so the one appended above may stand for any position.
		i := sort.Search(n, func(i int) bool { return !s.updates[i].version.Less(version) })
		s.updates = append(s.updates, updateTxn{})
		copy(s.updates[i+1:], s.updates[i:])
		s.updates[i] = u
		for v, idx := range s.byVer {
			if idx >= i {
				s.byVer[v] = idx + 1
			}
		}
		s.byVer[version] = i
		for de, idxs := range s.readers {
			for j, idx := range idxs {
				if idx >= i {
					idxs[j] = idx + 1
				}
			}
			s.readers[de] = idxs
		}
	}
	for _, r := range reads {
		if r.Version.IsZero() {
			continue
		}
		de := DepEntry{Key: r.Key, Version: r.Version}
		s.readers[de] = append(s.readers[de], s.byVer[version])
	}
}

// DepEntry is a (key, version) pair used as a reader-index key.
type DepEntry struct {
	Key     kv.Key
	Version kv.Version
}

// classifyExactLocked reports whether reads form a serializable snapshot
// under exact conflict-based SGT. Caller holds m.mu.
func (m *Monitor) classifyExactLocked(reads []Read) bool {
	if m.consistentLocked(reads) {
		return true // interval-consistent ⇒ exactly consistent
	}
	s := &m.exact
	s.init()

	// Predecessors: writers of the versions read.
	writers := s.writers[:0]
	var maxW kv.Version
	for _, r := range reads {
		if r.Version.IsZero() {
			continue
		}
		if i, ok := s.byVer[r.Version]; ok {
			// The version must actually have written this key: a phantom
			// version registered defensively for one key must not make
			// its transaction a predecessor for another key's read.
			if !containsWrite(s.updates[i].writes, r.Key) {
				continue
			}
			if !slices.Contains(writers, i) {
				writers = append(writers, i)
			}
			if maxW.Less(r.Version) {
				maxW = r.Version
			}
		}
	}
	s.writers = writers
	if len(writers) == 0 {
		return true
	}

	// Successor constraints: overwriters of the versions read. T is
	// non-serializable iff some overwriter reaches some writer.
	epoch := s.nextEpoch()
	for _, r := range reads {
		next, ok := m.nextVersionLocked(r.Key, r.Version)
		if !ok || maxW.Less(next) {
			continue
		}
		oi, ok := s.byVer[next]
		if !ok {
			continue // overwrite by a seed (cannot happen in practice)
		}
		if m.reachesLocked(oi, writers, maxW, epoch) {
			return false
		}
	}
	return true
}

// reachesLocked runs a DFS over conflict successors from node start,
// pruned to versions ≤ maxVer, returning true if it hits any target.
// Nodes marked with epoch are shared across the per-overwriter searches
// of one classification (reachability is monotone, so sharing is sound:
// a node already explored without hitting a target never will).
func (m *Monitor) reachesLocked(start int, targets []int, maxVer kv.Version, epoch uint32) bool {
	s := &m.exact
	stack := append(s.stack[:0], start)
	defer func() { s.stack = stack[:0] }()
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if slices.Contains(targets, u) {
			return true
		}
		if s.marks[u] == epoch {
			continue
		}
		s.marks[u] = epoch
		txn := &s.updates[u]
		// ww and wr successors per written key.
		for _, k := range txn.writes {
			if nv, ok := m.nextVersionLocked(k, txn.version); ok && !maxVer.Less(nv) {
				if i, ok := s.byVer[nv]; ok {
					stack = append(stack, i)
				}
			}
			for _, i := range s.readers[DepEntry{Key: k, Version: txn.version}] {
				if !maxVer.Less(s.updates[i].version) {
					stack = append(stack, i)
				}
			}
		}
		// rw successors per read version.
		for _, r := range txn.reads {
			if nv, ok := m.nextVersionLocked(r.Key, r.Version); ok && !maxVer.Less(nv) {
				if i, ok := s.byVer[nv]; ok && i != u {
					stack = append(stack, i)
				}
			}
		}
	}
	return false
}

// ClassifyExact classifies a read set with exact conflict-based
// serialization graph testing, without touching the statistics.
func (m *Monitor) ClassifyExact(reads []Read) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.classifyExactLocked(reads)
}

// trimExactLocked drops conflict-graph state strictly below watermark.
func (m *Monitor) trimExactLocked(watermark kv.Version) {
	s := &m.exact
	if len(s.updates) == 0 {
		return
	}
	i := sort.Search(len(s.updates), func(i int) bool {
		return !s.updates[i].version.Less(watermark)
	})
	if i == 0 {
		return
	}
	dropped := s.updates[:i]
	s.updates = append([]updateTxn(nil), s.updates[i:]...)
	s.marks = s.marks[:len(s.updates)]
	for _, u := range dropped {
		delete(s.byVer, u.version)
	}
	for v, idx := range s.byVer {
		s.byVer[v] = idx - i
	}
	for de, idxs := range s.readers {
		out := idxs[:0]
		for _, idx := range idxs {
			if idx >= i {
				out = append(out, idx-i)
			}
		}
		if len(out) == 0 {
			delete(s.readers, de)
			continue
		}
		s.readers[de] = out
	}
}

func containsWrite(xs []kv.Key, k kv.Key) bool {
	for _, x := range xs {
		if x == k {
			return true
		}
	}
	return false
}
