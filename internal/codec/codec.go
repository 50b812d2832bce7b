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
		b = AppendString(b, string(e.Key))
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
type Decoder struct {
	B   []byte
	Off int
	// Copy makes decoded byte slices and dependency-list keys
	// independent copies. Unset, they alias B (zero copy) — right for a
	// wire frame, whose payload buffer is allocated per frame and never
	// written again; set, nothing decoded pins B — right for the WAL,
	// whose recovered values live for the life of the process and must
	// not hold a 64 MiB segment read in memory.
	Copy bool
	err  error
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

// sharedString decodes a string whose bytes alias B unless Copy is set.
// The string pins the payload for as long as it lives, so it is used
// only where the win is real: dependency-list keys, the dominant string
// volume on the read path.
func (d *Decoder) sharedString() string {
	p := d.take(d.Uvarint())
	if d.Copy || len(p) == 0 {
		return string(p)
	}
	return unsafe.String(&p[0], len(p))
}

// Bytes decodes a nil-aware byte slice.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if n == 0 {
		return nil
	}
	p := d.take(n - 1)
	if d.err != nil || !d.Copy {
		return p
	}
	return append(make([]byte, 0, len(p)), p...)
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

func (d *Decoder) DepList() kv.DepList {
	n := d.Count(3) // key length + two version varints
	if n < 0 {
		return nil
	}
	l := make(kv.DepList, n)
	for i := range l {
		l[i] = kv.DepEntry{Key: kv.Key(d.sharedString()), Version: d.Version()}
	}
	return l
}

func DecodeEntry(d *Decoder) Entry {
	return Entry{Key: kv.Key(d.String()), Value: d.Bytes(), Deps: d.DepList()}
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
	return SnapshotEntry{Key: kv.Key(d.String()), Value: d.Bytes(), Version: d.Version(), Deps: d.DepList()}
}
