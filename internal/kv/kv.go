// Package kv defines the foundation types shared by the database, the
// cache, and the monitor: object keys and values, totally-ordered versions,
// and the bounded dependency lists at the heart of the T-Cache protocol
// (§III-A of the paper).
package kv

import (
	"fmt"
	"strconv"
)

// Key identifies a database object.
type Key string

// Value is an opaque object payload. The protocol never inspects it.
type Value []byte

// Clone returns a copy of the value, so callers can hold it across
// subsequent writes. Clone of nil is nil.
func (v Value) Clone() Value {
	if v == nil {
		return nil
	}
	out := make(Value, len(v))
	copy(out, v)
	return out
}

// TxnID identifies a read-only cache transaction. Whoever begins one mints
// it; the cache uses it to group reads belonging to one transaction.
type TxnID uint64

// ShardIndex hashes key onto one of n shards with 32-bit FNV-1a (the
// database store's lock stripes). n ≤ 1 always yields 0.
func ShardIndex(key Key, n int) int {
	if n <= 1 {
		return 0
	}
	var h uint32 = 2166136261
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// Version is the commit version assigned by the database to the transaction
// that most recently updated an object. Versions are totally ordered,
// first by Counter and then by the coordinating node, so that versions
// assigned by independent database shards never compare equal.
//
// The database guarantees (per §III-A) that a transaction's version is
// larger than the versions of all objects the transaction accessed.
type Version struct {
	Counter uint64
	Node    uint32
}

// ZeroVersion is the version of an object that was never written.
var ZeroVersion Version

// Less reports whether v orders strictly before o.
func (v Version) Less(o Version) bool {
	if v.Counter != o.Counter {
		return v.Counter < o.Counter
	}
	return v.Node < o.Node
}

// IsZero reports whether v is the never-written version.
func (v Version) IsZero() bool { return v == Version{} }

// Next returns the smallest version on node that is strictly greater
// than both v and o. It implements the Lamport-style counter merge used
// by the commit path.
func (v Version) Next(o Version, node uint32) Version {
	c := v.Counter
	if o.Counter > c {
		c = o.Counter
	}
	return Version{Counter: c + 1, Node: node}
}

// String implements fmt.Stringer, e.g. "17.3".
func (v Version) String() string {
	return strconv.FormatUint(v.Counter, 10) + "." + strconv.FormatUint(uint64(v.Node), 10)
}

// Max returns the larger of a and b.
func Max(a, b Version) Version {
	if a.Less(b) {
		return b
	}
	return a
}

// Item is one versioned object as stored by the database and shipped to
// caches: the payload, its version, and its dependency list.
type Item struct {
	Value   Value
	Version Version
	Deps    DepList
}

// Clone deep-copies the item.
func (it Item) Clone() Item {
	return Item{Value: it.Value.Clone(), Version: it.Version, Deps: it.Deps.Clone()}
}

// Lookup is one result of a batch backend read: the item and whether the
// key exists. Batch APIs return these positionally, one per requested key.
type Lookup struct {
	Item  Item
	Found bool
}

// ObservedRead is one read of an optimistic update transaction as the
// client observed it: the key, the committed version that was served,
// and whether the key existed. A validated commit re-reads every
// observed key under lock and applies the write set only if each still
// matches — the version carried here is what makes one-round-trip
// optimistic commits serializable.
type ObservedRead struct {
	Key     Key
	Version Version
	Found   bool
}

// KeyValue is one buffered write of an update transaction.
type KeyValue struct {
	Key   Key
	Value Value
}

// CommitResult is what a committed update transaction reports back: the
// commit version, and for each write — positionally — the dependency list
// the database stored with it (§III-A). With the writer's own value these
// make the committed Item, so a cache in front of the writer can keep what
// it wrote instead of refetching it. A key written twice in one write set
// carries the same list in both positions; its last value is the one
// committed.
// An in-process database answers with the lists its store keeps: they
// are read-only (Clone one to change it), like the store's reads.
type CommitResult struct {
	Version Version
	Deps    []DepList
}

// Access is one read-set or write-set tuple presented to the dependency
// aggregation at commit time: the key accessed, the version relevant to the
// dependency (the version read for read-set entries; the new transaction
// version for write-set entries), and the dependency list observed.
type Access struct {
	Key     Key
	Version Version
	Deps    DepList
}

func (a Access) String() string {
	return fmt.Sprintf("%s@%s", a.Key, a.Version)
}
