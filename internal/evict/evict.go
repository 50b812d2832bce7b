// Package evict is the cache's memory-bounded eviction subsystem:
// per-shard byte-cost budgets with pluggable replacement policies and
// optional doorkeeper admission control.
//
// The design constraints come from the core cache's hot path (PR 1):
// every eviction decision is made under the owning shard's mutex, and
// the warm hit must stay zero-allocation. Both follow from one choice —
// the policy bookkeeping lives in a Handle embedded BY VALUE inside the
// cache's own entry struct (an intrusive list node), so recording a
// touch, an insert, or a removal never allocates and never takes a lock
// of its own. A Shard is the per-cache-shard byte ledger wrapping one
// Policy; its zero value is unbounded: it counts resident bytes (one
// addition per insert or removal) but links nothing and never evicts,
// keeping the unbounded configuration (the paper's prototype: "all
// objects fit in the cache") as fast as before the subsystem existed.
//
// Three policies ship behind the one Policy interface:
//
//   - LRU: exact per-shard least-recently-used via an intrusive doubly
//     linked list. A warm hit splices the node to the front.
//   - Clock: the classic second-chance ring. A warm hit sets one bool
//     (no list splice, no pointer writes shared between hits), which is
//     measurably cheaper under shard-lock contention; eviction sweeps a
//     hand that clears reference bits and evicts the first cold entry.
//   - Cost: cost-aware sampling. A warm hit stamps a shard-local logical
//     tick; eviction samples a window from the clock hand and evicts the
//     worst bytes×staleness score, so one cold megabyte cannot outlive a
//     thousand hot hundred-byte entries.
//
// Eviction is always consistency-safe for the T-Cache protocol: the
// §III-B transaction records hold (key, version) pairs, not entry
// pointers, so an evicted dependency is simply a future cold read that
// re-validates on its way back in — never an eq.1/eq.2 hole.
package evict

import "fmt"

// Kind names an eviction policy.
type Kind uint8

const (
	// LRU is exact per-shard least-recently-used (the default).
	LRU Kind = iota
	// Clock is the second-chance ring: warm hits set a reference bit
	// instead of splicing a list, trading exactness for the cheapest
	// possible touch under lock contention.
	Clock
	// Cost is cost-aware sampled eviction: victims score by
	// bytes × staleness, so large cold objects go first.
	Cost
)

// String returns the flag-friendly lowercase policy name.
func (k Kind) String() string {
	switch k {
	case LRU:
		return "lru"
	case Clock:
		return "clock"
	case Cost:
		return "cost"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind parses a policy name as accepted by the -evict flags.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "lru", "":
		return LRU, nil
	case "clock":
		return Clock, nil
	case "cost":
		return Cost, nil
	default:
		return 0, fmt.Errorf("evict: unknown policy %q (want lru, clock, or cost)", s)
	}
}

// EntryOverhead is the per-entry byte cost charged on top of key and
// value lengths: the entry struct itself (key header, item, timestamps,
// the embedded Handle) plus its map bucket share. It keeps tiny-value
// workloads from undercounting — a million 10-byte entries is not 10MB.
const EntryOverhead = 160

// Handle is the intrusive policy node embedded (by value) in each cache
// entry. All fields are owned by the policy and guarded by the cache
// shard's mutex; the cache only passes &entry.h pointers in.
type Handle struct {
	prev, next *Handle
	// obj points back at the containing entry; set once at Add so
	// eviction can return the victim without a map lookup.
	obj any
	// cost is the entry's charged byte cost (or 1 in unit-cost mode).
	cost uint64
	// ref is the Clock reference bit: set by Touch, cleared by the hand.
	ref bool
	// tick is the Cost policy's last-touch stamp in shard-local logical
	// time.
	tick uint64
}

// linked reports whether h is currently on a policy's list. Unlinked
// handles (unbounded caches, already-evicted entries) must be ignored
// by Touch/Remove — the cache may race a touch against its own budget
// enforcement evicting the same entry one call earlier.
func (h *Handle) linked() bool { return h.next != nil }

// Policy is one replacement policy over a set of handles. Implementations
// are NOT thread-safe: every call is made under the owning cache shard's
// mutex, which is exactly what lets Touch stay allocation- and
// atomic-free.
type Policy interface {
	// Add links a new handle (most-recently-used position).
	Add(h *Handle)
	// Touch records a warm hit on a linked handle.
	Touch(h *Handle)
	// Remove unlinks a handle (invalidation, TTL expiry, stale-evict).
	Remove(h *Handle)
	// Evict selects, unlinks, and returns a victim, along with how many
	// handles were examined to find it (the eviction-scan cost). It
	// returns (nil, 0) when the policy is empty.
	Evict() (victim *Handle, scanned int)
	// Len returns the number of linked handles.
	Len() int
}

// New returns a fresh policy instance of the given kind.
func New(k Kind) Policy {
	switch k {
	case Clock:
		return newClock()
	case Cost:
		return newCost()
	default:
		return newLRU()
	}
}

// Shard is the per-cache-shard byte ledger: one policy, one byte budget,
// one running resident-byte count, and an optional admission
// doorkeeper. The zero value is unbounded (nil policy): it keeps the
// resident-byte count but tracks no handles, so unbounded caches pay one
// addition per insert or removal for the subsystem. Not thread-safe;
// guarded by the owning cache shard's mutex.
type Shard struct {
	policy Policy
	door   *Doorkeeper
	max    uint64
	used   uint64
}

// NewShard builds a bounded shard ledger with the given policy kind and
// byte budget (both required > 0 to be bounded) and, optionally, a
// doorkeeper admission filter.
func NewShard(k Kind, maxBytes uint64, admission bool) Shard {
	if maxBytes == 0 {
		return Shard{}
	}
	s := Shard{policy: New(k), max: maxBytes}
	if admission {
		s.door = NewDoorkeeper()
	}
	return s
}

// Bounded reports whether the shard enforces a budget.
func (s *Shard) Bounded() bool { return s.policy != nil }

// Used returns the resident bytes currently charged, bounded or not.
func (s *Shard) Used() uint64 { return s.used }

// Max returns the shard's byte budget (0 = unbounded).
func (s *Shard) Max() uint64 { return s.max }

// Len returns the number of entries the policy tracks.
func (s *Shard) Len() int {
	if s.policy == nil {
		return 0
	}
	return s.policy.Len()
}

// Admit reports whether a first-sighted key should be cached. Without a
// doorkeeper every key is admitted. With one, a key is admitted only on
// its second sighting inside the doorkeeper's window: one-hit-wonder
// scans are served but never displace the working set.
func (s *Shard) Admit(key string) bool {
	if s.door == nil {
		return true
	}
	return s.door.Seen(key)
}

// Touch records a warm hit. Safe on unlinked handles (unbounded shards,
// entries the budget already evicted).
func (s *Shard) Touch(h *Handle) {
	if s.policy == nil || !h.linked() {
		return
	}
	s.policy.Touch(h)
}

// Add charges a newly inserted entry's cost and, on a bounded shard,
// links it. obj is the containing cache entry, handed back verbatim by
// Evict.
func (s *Shard) Add(h *Handle, obj any, cost uint64) {
	h.cost = cost
	s.used += cost
	if s.policy == nil {
		return
	}
	h.obj = obj
	s.policy.Add(h)
}

// charged reports whether h's cost is on the ledger: linked on a bounded
// shard, added and not yet removed on an unbounded one.
func (s *Shard) charged(h *Handle) bool {
	if s.policy == nil {
		return h.cost != 0
	}
	return h.linked()
}

// Update re-charges an entry whose byte cost changed in place (its value
// replaced by a newer version). The accounting delta is applied to the
// running total; callers then re-check NeedEvict.
func (s *Shard) Update(h *Handle, cost uint64) {
	if !s.charged(h) {
		return
	}
	s.used += cost - h.cost // unsigned two's-complement delta; used ≥ h.cost always
	h.cost = cost
}

// Remove unlinks an entry and refunds its cost. Safe to call on handles
// that were never added or were already removed or evicted.
func (s *Shard) Remove(h *Handle) {
	if !s.charged(h) {
		return
	}
	if s.policy != nil {
		s.policy.Remove(h)
	}
	s.used -= h.cost
	h.cost = 0
}

// NeedEvict reports whether the shard is over budget.
func (s *Shard) NeedEvict() bool { return s.policy != nil && s.used > s.max }

// Evict selects and unlinks a victim, refunds its cost, and returns the
// obj it was added with plus the number of handles scanned. Returns
// (nil, 0) when nothing is evictable.
func (s *Shard) Evict() (obj any, scanned int) {
	if s.policy == nil {
		return nil, 0
	}
	h, n := s.policy.Evict()
	if h == nil {
		return nil, n
	}
	s.used -= h.cost
	obj = h.obj
	h.obj = nil
	return obj, n
}
