// Package codec is the one byte layout of the values every tier stores
// or ships: versions, dependency lists, committed records and snapshot
// entries. The write-ahead log frames them on disk (internal/wal), the
// wire protocol frames them in messages and the replication stream in
// record batches (internal/transport); all three append with the
// encoders below and read back through one bounds-checked Decoder.
//
// Fields are varint-encoded, append-style, with no reflection and no
// per-message type information. Byte slices and element counts are
// nil-aware — 0 encodes nil, n+1 encodes length n — so
// decode(encode(x)) reproduces x exactly, including the nil/empty
// distinction (the fuzz round trips rely on it).
package codec

import (
	"encoding/binary"
	"errors"
	"unique"
	"unsafe"

	"tcache/internal/kv"
)

// ErrTruncated reports a payload that ended mid-field, or an element
// count larger than the bytes that remain could hold.
var ErrTruncated = errors.New("codec: truncated payload")

// Entry is one written object within a committed transaction.
type Entry struct {
	Key   kv.Key
	Value kv.Value
	Deps  kv.DepList
}

// Record is one committed update transaction: the commit version and
// every object it wrote. Replay applies records in log order, so the
// last record writing a key decides its recovered state.
type Record struct {
	Version kv.Version
	Writes  []Entry
}

// SnapshotEntry is one live object in a snapshot: unlike a commit
// record, each entry carries its own version (different keys in one
// snapshot were committed at different times).
type SnapshotEntry struct {
	Key     kv.Key
	Value   kv.Value
	Version kv.Version
	Deps    kv.DepList
}

// --- Encoders -----------------------------------------------------------

func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes writes the nil-aware byte slice p.
func AppendBytes(b, p []byte) []byte {
	if p == nil {
		return binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(p))+1)
	return append(b, p...)
}

// AppendCount writes the nil-aware element count for a slice of length
// n (negative means nil).
func AppendCount(b []byte, n int) []byte {
	if n < 0 {
		return binary.AppendUvarint(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

// AppendLen writes s's nil-aware element count.
func AppendLen[T any](b []byte, s []T) []byte {
	if s == nil {
		return AppendCount(b, -1)
	}
	return AppendCount(b, len(s))
}

func AppendVersion(b []byte, v kv.Version) []byte {
	b = binary.AppendUvarint(b, v.Counter)
	return binary.AppendUvarint(b, uint64(v.Node))
}

func AppendDepList(b []byte, l kv.DepList) []byte {
	b = AppendLen(b, l)
	for _, e := range l {
		b = AppendString(b, string(e.Key.Value()))
		b = AppendVersion(b, e.Version)
	}
	return b
}

func AppendEntry(b []byte, e *Entry) []byte {
	b = AppendString(b, string(e.Key))
	b = AppendBytes(b, e.Value)
	return AppendDepList(b, e.Deps)
}

func AppendRecord(b []byte, rec *Record) []byte {
	b = AppendVersion(b, rec.Version)
	b = AppendLen(b, rec.Writes)
	for i := range rec.Writes {
		b = AppendEntry(b, &rec.Writes[i])
	}
	return b
}

func AppendSnapshotEntry(b []byte, e *SnapshotEntry) []byte {
	b = AppendString(b, string(e.Key))
	b = AppendBytes(b, e.Value)
	b = AppendVersion(b, e.Version)
	return AppendDepList(b, e.Deps)
}

// --- Decoder ------------------------------------------------------------

// Decoder walks one payload. Every accessor bounds-checks; element
// counts are validated against the remaining payload before any
// allocation, so an adversarial count cannot force a huge one. The
// first failure sticks: from then on every accessor returns a zero
// value and consumes nothing, and Err reports ErrTruncated — so a
// message decoder reads its fields straight through and checks once.
// An item a caller keeps owns its bytes; only transient values (Bytes)
// alias B. Item, DepList and the record and snapshot-entry decoders copy
// values and intern dependency keys, so no store, cache or installer pins
// a frame or a segment read.
type Decoder struct {
	B   []byte
	Off int
	err error
}

// Err returns ErrTruncated if any accessor so far ran off the payload
// or met an impossible count, else nil.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) Remaining() int { return len(d.B) - d.Off }

func (d *Decoder) Byte() byte {
	if d.err != nil || d.Remaining() < 1 {
		d.err = ErrTruncated
		return 0
	}
	d.Off++
	return d.B[d.Off-1]
}

func (d *Decoder) Bool() bool { return d.Byte() != 0 }

func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.B[d.Off:])
	if n <= 0 {
		d.err = ErrTruncated
		return 0
	}
	d.Off += n
	return v
}

// take returns the next n payload bytes, aliasing B.
func (d *Decoder) take(n uint64) []byte {
	if d.err != nil || n > uint64(d.Remaining()) {
		d.err = ErrTruncated
		return nil
	}
	p := d.B[d.Off : d.Off+int(n) : d.Off+int(n)]
	d.Off += int(n)
	return p
}

// String decodes a length-prefixed string, always copying.
func (d *Decoder) String() string { return string(d.take(d.Uvarint())) }

// Name decodes a string that is usually one of names: a match returns
// that element without allocating, anything else a copy.
func Name[S ~string](d *Decoder, names []S) S {
	p := d.take(d.Uvarint())
	for _, n := range names {
		if string(p) == string(n) {
			return n
		}
	}
	return S(p)
}

// Bytes decodes a nil-aware byte slice aliasing B: a transient value.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if n == 0 {
		return nil
	}
	return d.take(n - 1)
}

// Count decodes a nil-aware element count, validated against the
// remaining payload at minBytes per element. It returns -1 for nil —
// and for a count it refuses, so the caller allocates nothing.
func (d *Decoder) Count(minBytes int) int {
	c := d.Uvarint()
	if c == 0 {
		return -1
	}
	// Divide instead of multiplying: a hostile count near 2^64 would
	// overflow count*minBytes and slip past the guard.
	if c-1 > uint64(d.Remaining()/minBytes) {
		d.err = ErrTruncated
		return -1
	}
	return int(c - 1)
}

func (d *Decoder) Version() kv.Version {
	return kv.Version{Counter: d.Uvarint(), Node: uint32(d.Uvarint())}
}

// DepList decodes a dependency list: its keys are interned, so it holds
// nothing of B.
func (d *Decoder) DepList() kv.DepList {
	_, l := d.owned(nil)
	return l
}

// Item decodes an item laid out as value, version, dependency list (the
// wire's layout): the value is copied into a buffer of its own length and
// the list's keys are interned — at most two allocations (the value and
// the list), none shared with B.
func (d *Decoder) Item() kv.Item {
	it := kv.Item{Value: d.Bytes(), Version: d.Version()}
	it.Value, it.Deps = d.owned(it.Value)
	return it
}

// owned decodes the dependency list that follows value (which aliases
// B), interning each key, and copies value, so neither result pins B.
// unique.Make copies a key only the first time the process sees it; a
// key already interned costs a lookup and no allocation.
func (d *Decoder) owned(value []byte) (kv.Value, kv.DepList) {
	var l kv.DepList
	if n := d.Count(3); n >= 0 { // key length + two version varints
		l = make(kv.DepList, n)
	}
	for i := range l {
		l[i].Key = intern(d.take(d.Uvarint()))
		l[i].Version = d.Version()
	}
	if d.err != nil {
		return nil, nil
	}
	return kv.Value(value).Clone(), l
}

// intern returns the handle of list key k, which aliases B.
func intern(k []byte) unique.Handle[kv.Key] {
	var key kv.Key
	if len(k) > 0 {
		key = kv.Key(unsafe.String(&k[0], len(k))) // copied by unique.Make if new
	}
	return unique.Make(key)
}

func DecodeEntry(d *Decoder) Entry {
	e := Entry{Key: kv.Key(d.String()), Value: d.Bytes()}
	e.Value, e.Deps = d.owned(e.Value)
	return e
}

func DecodeRecord(d *Decoder) Record {
	rec := Record{Version: d.Version()}
	n := d.Count(3) // key length + nil value + nil dep list
	if n < 0 {
		return rec
	}
	rec.Writes = make([]Entry, n)
	for i := range rec.Writes {
		rec.Writes[i] = DecodeEntry(d)
	}
	return rec
}

func DecodeSnapshotEntry(d *Decoder) SnapshotEntry {
	e := SnapshotEntry{Key: kv.Key(d.String()), Value: d.Bytes(), Version: d.Version()}
	e.Value, e.Deps = d.owned(e.Value)
	return e
}
