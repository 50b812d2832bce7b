package kv

import (
	"slices"
	"sort"
	"strings"
)

// DepEntry records that the current version of some object depends on
// object Key having version at least Version: a read-only transaction that
// sees the depending object must not see Key at any older version.
type DepEntry struct {
	Key     Key
	Version Version
}

func (e DepEntry) String() string { return string(e.Key) + "@" + e.Version.String() }

// DepList is a bounded-length, most-recent-first list of dependencies.
//
// Recency ordering is what gives the list its LRU behaviour (§III-A): when
// the database merges lists at commit, entries contributed by the
// committing transaction's own accesses come first, and inherited entries
// retain their relative order; truncation to the bound then discards the
// least recently refreshed dependencies. This is the mechanism that lets
// dependency lists track drifting clusters (Fig. 5).
type DepList []DepEntry

// Unbounded is the dependency-list bound meaning "never truncate". It is
// used by the Theorem 1 (cache-serializability) configuration.
const Unbounded = -1

// Clone returns a copy of the list. Clone of nil is nil.
func (l DepList) Clone() DepList {
	if l == nil {
		return nil
	}
	out := make(DepList, len(l))
	copy(out, l)
	return out
}

// Lookup returns the version the list expects for key, and whether the key
// appears in the list at all.
func (l DepList) Lookup(key Key) (Version, bool) {
	for _, e := range l {
		if e.Key == key {
			return e.Version, true
		}
	}
	return Version{}, false
}

// Keys returns the keys in list order.
func (l DepList) Keys() []Key {
	out := make([]Key, len(l))
	for i, e := range l {
		out[i] = e.Key
	}
	return out
}

// String renders the list as "[a@1.0 b@3.2]".
func (l DepList) String() string {
	parts := make([]string, len(l))
	for i, e := range l {
		parts[i] = e.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Equal reports whether two lists are identical (same entries, same order).
func (l DepList) Equal(o DepList) bool {
	if len(l) != len(o) {
		return false
	}
	for i := range l {
		if l[i] != o[i] {
			return false
		}
	}
	return true
}

// Normalize returns the entries sorted by key (for tests and hashing); it
// does not modify the receiver.
func (l DepList) Normalize() DepList {
	out := l.Clone()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// MergeDeps computes the paper's full-dep-list for a committing
// transaction and prunes it to bound entries:
//
//	full-dep-list ← ⋃ over (key,ver,depList) ∈ readSet ∪ writeSet of
//	                {(key, ver)} ∪ depList
//
// Ordering implements the paper's LRU pruning: the transaction's own
// accesses come first (touched right now), followed by the inherited
// dependency entries ordered by version, newest first. An entry's version
// is the last time that dependency was refreshed by a transaction, so
// version order is recency order; this is what makes dependencies of a new
// cluster push out dependencies of an abandoned one (Fig. 5) instead of
// stale entries squatting in the list forever. Duplicate keys are
// collapsed keeping the largest version — "a list entry can be discarded
// if the same entry's object appears in another entry with a larger
// version".
//
// bound < 0 (Unbounded) disables truncation. bound == 0 always returns nil,
// which degrades T-Cache to a consistency-unaware cache (the k=0 point of
// Fig. 7c).
//
// A merge of at most mergeSpill entries (own accesses plus inherited
// lists) dedups by a linear scan of the result, allocating only the result
// and the inherited scratch; a larger merge indexes keys in a map. Both
// give the same list.
func MergeDeps(bound int, accesses []Access) DepList {
	return mergeDeps(bound, accesses, false)
}

// MergeDepsPositional is MergeDeps with the inherited entries ranked by
// list position instead of version recency. It exists for the ablation
// study (cmd/tcache-figs -fig lru): positional ranking lets dead
// entries inherited from the first access displace newer, relevant
// dependencies indefinitely.
func MergeDepsPositional(bound int, accesses []Access) DepList {
	return mergeDeps(bound, accesses, true)
}

// mergeSpill is the merge size above which mergeDeps indexes keys in a
// map. It is the measured crossover: on 2 vCPUs (go1.24), dedup by scan
// is 10–30 % faster than the map up to 24 entries, about even at 28, and
// slower from 30 on (by 20–40 % at 48–64, and 4× at 100); below the
// spill it also skips the map's three allocations. The paper's
// simulation (random walks, bound 3) merges at most 20 entries; a 5-key
// update at bound 5 merges 30.
const mergeSpill = 24

func mergeDeps(bound int, accesses []Access, positional bool) DepList {
	if bound == 0 {
		return nil
	}
	// Upper-bound capacity estimate: own entries plus inherited lists.
	capHint := len(accesses)
	for _, a := range accesses {
		capHint += len(a.Deps)
	}
	merged := make(DepList, 0, capHint)
	var index map[Key]int // nil up to mergeSpill entries: add scans merged
	if capHint > mergeSpill {
		index = make(map[Key]int, capHint)
	}

	add := func(e DepEntry) {
		i := -1
		if index != nil {
			if j, ok := index[e.Key]; ok {
				i = j
			}
		} else {
			for j := range merged {
				if merged[j].Key == e.Key {
					i = j
					break
				}
			}
		}
		if i >= 0 {
			if merged[i].Version.Less(e.Version) {
				merged[i].Version = e.Version
			}
			return
		}
		if index != nil {
			index[e.Key] = len(merged)
		}
		merged = append(merged, e)
	}

	// Pass 1: the accesses themselves — the most recently touched objects.
	for _, a := range accesses {
		add(DepEntry{Key: a.Key, Version: a.Version})
	}
	// Pass 2: inherited dependencies, most recently refreshed first
	// (or in raw list order for the positional ablation).
	inherited := make(DepList, 0, capHint-len(accesses))
	for _, a := range accesses {
		inherited = append(inherited, a.Deps...)
	}
	if !positional {
		slices.SortStableFunc(inherited, func(a, b DepEntry) int {
			switch {
			case b.Version.Less(a.Version):
				return -1
			case a.Version.Less(b.Version):
				return 1
			}
			return 0
		})
	}
	for _, e := range inherited {
		add(e)
	}

	if bound > 0 && len(merged) > bound {
		merged = merged[:bound:bound]
	}
	return merged
}

// WithoutKey returns a copy of the list without key's entries, cut to at
// most bound entries (bound < 0: uncut). A list holding key once — every
// merged list does — gets a copy of just that size, which the database
// stores as an object's own list (an object trivially depends on itself).
func (l DepList) WithoutKey(key Key, bound int) DepList {
	n := len(l)
	if _, self := l.Lookup(key); self {
		n--
	}
	if bound >= 0 {
		n = min(n, bound)
	}
	if n <= 0 {
		return nil
	}
	out := make(DepList, 0, n)
	for _, e := range l {
		if e.Key != key && len(out) < n {
			out = append(out, e)
		}
	}
	return out
}

// Truncate returns the list cut to at most bound entries (bound < 0 means
// no truncation).
func (l DepList) Truncate(bound int) DepList {
	if bound < 0 || len(l) <= bound {
		return l
	}
	return l[:bound:bound]
}
