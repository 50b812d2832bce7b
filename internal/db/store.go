package db

import (
	"sync"

	"tcache/internal/kv"
)

// storeStripes is the number of RWMutex stripes the store hashes its
// keys over, so concurrent readers and the committer rarely share a lock.
const storeStripes = 8

// store is the database's map from keys to versioned items, striped
// over storeStripes locks. Items carry their commit version and
// dependency list (kv.Item); the store imposes no consistency semantics
// — that is the job of the database's concurrency control. It is safe
// for concurrent use. Put and Range copy an item's value and list; keep
// stores an item handed over — a commit's, or a decoded one that owns
// its bytes — and GetShared shares storage under a read-only
// copy-on-write contract. No stored item aliases a caller's buffer.
type store struct {
	shards [storeStripes]storeShard
}

type storeShard struct {
	mu    sync.RWMutex //tcache:lockclass store
	items map[kv.Key]kv.Item
}

func newStore() *store {
	s := &store{}
	for i := range s.shards {
		s.shards[i].items = make(map[kv.Key]kv.Item)
	}
	return s
}

func (s *store) shardOf(key kv.Key) *storeShard {
	return &s.shards[kv.ShardIndex(key, storeStripes)]
}

// GetShared returns the item stored under key without copying — the
// read hot path. Stored items are effectively immutable: Put and keep
// store items no one writes again, replacing the map entry wholesale, so
// a shared item's Value and Deps are never mutated afterwards. Callers must honor the copy-on-write contract and treat
// them as read-only; Clone the item for a private copy.
func (s *store) GetShared(key kv.Key) (kv.Item, bool) {
	sh := s.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	it, ok := sh.items[key]
	return it, ok
}

// Version returns the stored version of key without copying the payload,
// and whether the key exists.
func (s *store) Version(key kv.Key) (kv.Version, bool) {
	sh := s.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	it, ok := sh.items[key]
	return it.Version, ok
}

// Put stores a deep copy of item under key, replacing any prior item.
func (s *store) Put(key kv.Key, item kv.Item) {
	s.keep(key, item.Clone())
}

// keep is Put without the copy: the caller hands item over.
func (s *store) keep(key kv.Key, item kv.Item) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.items[key] = item
}

// Len returns the total number of stored items.
func (s *store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.items)
		sh.mu.RUnlock()
	}
	return n
}

// Range calls f for every (key, item) pair until f returns false. The item
// passed to f is a deep copy. Iteration holds one stripe's read lock at a
// time; concurrent writers may be observed or missed.
func (s *store) Range(f func(key kv.Key, item kv.Item) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, it := range sh.items {
			cp := it.Clone()
			sh.mu.RUnlock()
			if !f(k, cp) {
				return
			}
			sh.mu.RLock()
		}
		sh.mu.RUnlock()
	}
}
