package monitor

import (
	"slices"

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
// Layout. updates is ordered by version; an update's written key ids and
// its reads are spans of two arenas, and the readers of one key version
// are a list threaded through a third (links), headed in the version's
// history entry. Nothing here holds a pointer, so the garbage collector
// scans none of it, and the search follows slice indices instead of
// hashing. Three rules keep its verdicts those of the original map-based
// indexes (exact_oracle_test.go's refMonitor):
//
//   - The node at version v is the update with that version, whether or
//     not it wrote the key: an entry with no writer of its own (a seed, or
//     a phantom registered by RecordReadOnly) falls back to a search of
//     updates by version (updateAt).
//   - Readers of a key version that has no history entry yet wait in
//     pending and join the entry when it is inserted (insertLocked).
//   - An update recorded out of version order shifts every stored update
//     index at or above its position (rare: the db's commit hooks run in
//     version order).
//
// A classification allocates nothing once its scratch has grown: the
// writer set, the DFS stack and the visited marks live in exactState and
// are reused by every classification, which is safe because all of them
// run under the monitor's one mutex. Visited marks are epoch stamps in a
// slice parallel to updates: a classification takes a fresh epoch, so
// marks left by earlier ones read as unvisited without being cleared
// (they are zeroed only when the epoch counter wraps).

// update is one committed update transaction: its version and its spans
// of exactState.writes and exactState.reads.
type update struct {
	ver  kv.Version
	w, r span
}

// span is the run [off, off+n) of an arena.
type span struct{ off, n int32 }

// link is one reader of a key version: an update index and the next link.
type link struct{ update, next int32 }

// exactState holds the conflict graph, embedded in Monitor.
type exactState struct {
	updates []update
	writes  []int32
	reads   []keyRead
	links   []link
	// pending heads the reader lists of key versions not yet in hist.
	pending map[keyRead]int32

	// Classification scratch (see the file comment). marks[i] == epoch
	// means updates[i] was visited by the current classification; marks
	// is kept as long as updates.
	marks   []uint32
	epoch   uint32
	writers []int32
	stack   []int32
	rs      []keyRead
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

// find returns the position of version v in updates and whether it is
// there.
func (s *exactState) find(v kv.Version) (int, bool) {
	n := len(s.updates)
	if n == 0 || s.updates[n-1].ver.Less(v) {
		return n, false
	}
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.updates[mid].ver.Less(v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, s.updates[lo].ver == v
}

// updateAt returns the index of the update at e's version, or -1.
func (s *exactState) updateAt(e entry) int32 {
	if e.writer >= 0 {
		return e.writer
	}
	if i, ok := s.find(e.ver); ok {
		return int32(i)
	}
	return -1
}

// addReader puts update u at the front of the reader list *head.
func (s *exactState) addReader(head *int32, u int32) {
	s.links = append(s.links, link{u, *head})
	*head = int32(len(s.links) - 1)
}

// moveToEnd returns arena with span sp at its end, copying the span
// there unless it already ends the arena, so that appending extends it.
func moveToEnd[T any](arena []T, sp *span) []T {
	if int(sp.off+sp.n) != len(arena) {
		off := int32(len(arena))
		arena = append(arena, arena[sp.off:sp.off+sp.n]...)
		sp.off = off
	}
	return arena
}

// recordLocked registers an update transaction's access sets, merging
// a version reported in several calls. Every report keeps its
// zero-version reads: they are rw edges to the key's first writer.
func (m *Monitor) recordLocked(version kv.Version, writes []kv.Key, reads []Read) {
	s := &m.exact
	i, merge := s.find(version)
	if !merge {
		m.insertUpdateLocked(i, version)
	}
	u := int32(i)
	up := &s.updates[i]
	s.writes = moveToEnd(s.writes, &up.w)
	for _, k := range writes {
		id := m.intern(k)
		if !version.IsZero() {
			j := m.insertLocked(id, version)
			m.hist[id][j].writer = u
		}
		s.writes = append(s.writes, id)
		up.w.n++
	}
	s.reads = moveToEnd(s.reads, &up.r)
	for _, r := range reads {
		kr := keyRead{r.Version, m.intern(r.Key)}
		s.reads = append(s.reads, kr)
		up.r.n++
		if kr.ver.IsZero() {
			continue
		}
		h := m.hist[kr.id]
		if j, ok := seek(h, kr.ver); ok {
			s.addReader(&h[j].readers, u)
			continue
		}
		head, ok := s.pending[kr]
		if !ok {
			head = -1
		}
		s.addReader(&head, u)
		if s.pending == nil {
			s.pending = make(map[keyRead]int32)
		}
		s.pending[kr] = head
	}
}

// insertUpdateLocked inserts an empty update at position i of updates,
// shifting the stored index of every update it displaces.
func (m *Monitor) insertUpdateLocked(i int, version kv.Version) {
	s := &m.exact
	s.marks = append(s.marks, 0) // compared only with a fresh epoch
	u := update{ver: version, w: span{int32(len(s.writes)), 0}, r: span{int32(len(s.reads)), 0}}
	if i == len(s.updates) {
		s.updates = append(s.updates, u)
		return
	}
	s.updates = slices.Insert(s.updates, i, u)
	for _, h := range m.hist {
		for j := range h {
			if h[j].writer >= int32(i) {
				h[j].writer++
			}
		}
	}
	for j := range s.links {
		if s.links[j].update >= int32(i) {
			s.links[j].update++
		}
	}
}

// ClassifyExact classifies a read set with exact conflict-based
// serialization graph testing, without touching the statistics.
func (m *Monitor) ClassifyExact(reads []Read) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.classifyExactLocked(m.lookupLocked(reads))
}

// classifyExactLocked reports whether rs forms a serializable snapshot
// under exact conflict-based SGT. Caller holds m.mu.
func (m *Monitor) classifyExactLocked(rs []keyRead) bool {
	if m.consistentLocked(rs) {
		return true // interval-consistent ⇒ exactly consistent
	}
	s := &m.exact

	// Predecessors: the updates that wrote the versions read. A phantom
	// version registered defensively for one key has no writer there, so
	// its update is not made a predecessor by that key's read.
	writers := s.writers[:0]
	var maxW kv.Version
	for _, r := range rs {
		if r.id < 0 || r.ver.IsZero() {
			continue
		}
		h := m.hist[r.id]
		if j, ok := seek(h, r.ver); ok && h[j].writer >= 0 {
			if !slices.Contains(writers, h[j].writer) {
				writers = append(writers, h[j].writer)
			}
			maxW = kv.Max(maxW, r.ver)
		}
	}
	s.writers = writers
	if len(writers) == 0 {
		return true
	}

	// Successor constraints: overwriters of the versions read. T is
	// non-serializable iff some overwriter reaches some writer.
	epoch := s.nextEpoch()
	for _, r := range rs {
		e, ok := m.nextLocked(r.id, r.ver)
		if !ok || maxW.Less(e.ver) {
			continue
		}
		if o := s.updateAt(e); o >= 0 && m.reachesLocked(o, writers, maxW, epoch) {
			return false
		}
	}
	return true
}

// reachesLocked runs a DFS over conflict successors from update start,
// pruned to versions ≤ maxVer, returning true if it hits any target.
// Nodes marked with epoch are shared across the per-overwriter searches
// of one classification (reachability is monotone, so sharing is sound:
// a node already explored without hitting a target never will).
func (m *Monitor) reachesLocked(start int32, targets []int32, maxVer kv.Version, epoch uint32) bool {
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
		up := s.updates[u]
		// ww and wr successors per written key: the readers of the
		// version u wrote, then the key's next version.
		for _, id := range s.writes[up.w.off : up.w.off+up.w.n] {
			h := m.hist[id]
			j, ok := seek(h, up.ver)
			if ok {
				for l := h[j].readers; l >= 0; l = s.links[l].next {
					if r := s.links[l].update; !maxVer.Less(s.updates[r].ver) {
						stack = append(stack, r)
					}
				}
				j++
			}
			if j < len(h) && !maxVer.Less(h[j].ver) {
				if o := s.updateAt(h[j]); o >= 0 {
					stack = append(stack, o)
				}
			}
		}
		// rw successors per read version: its next version.
		for _, r := range s.reads[up.r.off : up.r.off+up.r.n] {
			if e, ok := m.nextLocked(r.id, r.ver); ok && !maxVer.Less(e.ver) {
				if o := s.updateAt(e); o >= 0 {
					stack = append(stack, o)
				}
			}
		}
	}
	return false
}
