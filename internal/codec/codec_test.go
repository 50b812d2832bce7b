package codec

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"tcache/internal/kv"
)

func v(c uint64) kv.Version { return kv.Version{Counter: c} }

// sampleRecords covers every field shape the record encoder handles,
// including the nil/empty distinctions the codec must preserve.
func sampleRecords() []Record {
	return []Record{
		{},
		{Version: kv.Version{Counter: 1, Node: 7}},
		{Version: v(2), Writes: []Entry{}},
		{Version: v(3), Writes: []Entry{{Key: "k", Value: nil, Deps: nil}}},
		{Version: v(4), Writes: []Entry{{Key: "k", Value: kv.Value{}, Deps: kv.DepList{}}}},
		{Version: kv.Version{Counter: 1 << 60, Node: ^uint32(0)}, Writes: []Entry{
			{Key: "a", Value: kv.Value("x"), Deps: kv.DepList{{Key: "b", Version: kv.Version{Counter: 9, Node: 3}}, {Key: "", Version: v(1)}}},
			{Key: "", Value: kv.Value{0, 1, 2}, Deps: nil},
		}},
	}
}

func sampleSnapshotEntries() []SnapshotEntry {
	return []SnapshotEntry{
		{},
		{Key: "k", Value: kv.Value("v"), Version: kv.Version{Counter: 42, Node: 2}, Deps: kv.DepList{{Key: "d", Version: v(41)}}},
		{Key: "empty", Value: kv.Value{}, Deps: kv.DepList{}},
	}
}

// TestRoundTripExact: decode(encode(x)) reproduces x exactly in both
// decoder modes — aliasing (the wire) and copying (the WAL) — for the
// samples and for values with every field filled.
func TestRoundTripExact(t *testing.T) {
	for _, e := range filled[Entry](t, 100) {
		roundTrips(t, e, AppendEntry, DecodeEntry)
	}
	for _, rec := range append(sampleRecords(), filled[Record](t, 100)...) {
		roundTrips(t, rec, AppendRecord, DecodeRecord)
	}
	for _, e := range append(sampleSnapshotEntries(), filled[SnapshotEntry](t, 100)...) {
		roundTrips(t, e, AppendSnapshotEntry, DecodeSnapshotEntry)
	}
}

// filled returns n values of T whose every field testing/quick has set
// to a random non-zero value (seeded, so the values repeat), so a round
// trip that drops any field fails without a sample naming it. A field
// type quick cannot generate fails the test.
func filled[T any](t *testing.T, n int) []T {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	out := make([]T, n)
	for k := range out {
		v := reflect.ValueOf(&out[k]).Elem()
		for i := 0; i < v.NumField(); i++ {
			for f := v.Field(i); f.IsZero(); {
				g, ok := quick.Value(f.Type(), r)
				if !ok {
					t.Fatalf("%s.%s: testing/quick cannot generate a %s", v.Type(), v.Type().Field(i).Name, f.Type())
				}
				f.Set(g)
			}
		}
	}
	return out
}

// roundTrips checks that dec(enc(want)) is want, byte for byte consumed,
// in both decoder modes.
func roundTrips[T any](t *testing.T, want T, enc func([]byte, *T) []byte, dec func(*Decoder) T) {
	t.Helper()
	for _, copyOut := range []bool{false, true} {
		d := Decoder{B: enc(nil, &want), Copy: copyOut}
		got := dec(&d)
		if d.Err() != nil || d.Remaining() != 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%T round trip (copy=%v): err %v, %d bytes left over\n got %#v\nwant %#v", want, copyOut, d.Err(), d.Remaining(), got, want)
		}
	}
}

// TestCopyModeDetachesFromBuffer is the WAL's safety property: what a
// Copy decoder returns survives the buffer being overwritten (a segment
// read going away), while the aliasing decoder's values follow the
// buffer — which is the zero-copy contract the wire relies on.
func TestCopyModeDetachesFromBuffer(t *testing.T) {
	want := Record{Version: v(5), Writes: []Entry{{
		Key: "key", Value: kv.Value("value-bytes"), Deps: kv.DepList{{Key: "dep-key", Version: v(4)}},
	}}}
	decode := func(copyOut bool) (Record, []byte) {
		buf := AppendRecord(nil, &want)
		d := Decoder{B: buf, Copy: copyOut}
		rec := DecodeRecord(&d)
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
		return rec, buf
	}
	scribble := func(buf []byte) {
		for i := range buf {
			buf[i] = 'X'
		}
	}

	copied, buf := decode(true)
	scribble(buf)
	if !reflect.DeepEqual(copied, want) {
		t.Fatalf("Copy-mode record still aliases its buffer: %#v", copied)
	}
	aliased, buf := decode(false)
	scribble(buf)
	w := aliased.Writes[0]
	if string(w.Value) != "XXXXXXXXXXX" || w.Deps[0].Key != "XXXXXXX" {
		t.Fatalf("aliasing decoder copied: value %q dep key %q", w.Value, w.Deps[0].Key)
	}
	if w.Key != "key" {
		t.Fatalf("entry keys are always copied, got %q", w.Key)
	}
}

// TestTruncationIsAnError feeds every strict prefix of valid encodings
// to the decoders: each must report ErrTruncated, none may panic.
func TestTruncationIsAnError(t *testing.T) {
	for _, rec := range sampleRecords() {
		enc := AppendRecord(nil, &rec)
		for i := 0; i < len(enc); i++ {
			d := Decoder{B: enc[:i]}
			if DecodeRecord(&d); !errors.Is(d.Err(), ErrTruncated) {
				t.Fatalf("record truncated at %d/%d: err = %v", i, len(enc), d.Err())
			}
		}
	}
	for _, e := range sampleSnapshotEntries() {
		enc := AppendSnapshotEntry(nil, &e)
		for i := 0; i < len(enc); i++ {
			d := Decoder{B: enc[:i], Copy: true}
			if DecodeSnapshotEntry(&d); !errors.Is(d.Err(), ErrTruncated) {
				t.Fatalf("snapshot entry truncated at %d/%d: err = %v", i, len(enc), d.Err())
			}
		}
	}
}

// TestHostileCountsRejectedBeforeAllocating builds payloads whose
// counts and lengths claim far more than the bytes that follow — up to
// the 2^64 edge where count*size overflows — and checks each is refused
// without attempting the allocation.
func TestHostileCountsRejectedBeforeAllocating(t *testing.T) {
	for _, huge := range []uint64{3, 1 << 40, 1<<64 - 1} {
		claim := append(binary.AppendUvarint(nil, huge), 0) // huge, with one byte behind it
		for name, decode := range map[string]func(*Decoder) int{
			"dep list count": func(d *Decoder) int { return len(d.DepList()) },
			"bytes length":   func(d *Decoder) int { return len(d.Bytes()) },
			"string length":  func(d *Decoder) int { return len(d.String()) },
			"record write count": func(d *Decoder) int {
				d.B = append(AppendVersion(nil, v(1)), d.B...)
				return len(DecodeRecord(d).Writes)
			},
		} {
			for _, copyOut := range []bool{false, true} {
				d := Decoder{B: claim, Copy: copyOut}
				if n := decode(&d); n != 0 || !errors.Is(d.Err(), ErrTruncated) {
					t.Errorf("%s %d (copy=%v): decoded %d elements, err = %v", name, huge, copyOut, n, d.Err())
				}
			}
		}
	}
	// An exactly-fitting count is accepted: the guard is not off by one.
	l := kv.DepList{{Key: "", Version: v(0)}, {Key: "", Version: v(0)}}
	d := Decoder{B: AppendDepList(nil, l)}
	if got := d.DepList(); d.Err() != nil || len(got) != 2 {
		t.Fatalf("tight dep list = %v, %v", got, d.Err())
	}
}

// TestErrorSticks: after the first failure every accessor returns zero
// and consumes nothing, so a straight-line message decoder cannot read
// past a truncation into garbage.
func TestErrorSticks(t *testing.T) {
	d := Decoder{B: []byte{0x80}} // an unterminated varint, then nothing
	if got := d.Uvarint(); got != 0 || d.Err() == nil {
		t.Fatalf("Uvarint on a torn varint = %d, %v", got, d.Err())
	}
	d.B = AppendString([]byte{0x80}, "readable if the error did not stick")
	off := d.Off
	if d.Byte() != 0 || d.Bool() || d.Uvarint() != 0 || d.String() != "" || d.Bytes() != nil ||
		d.Count(1) != -1 || !d.Version().IsZero() || d.DepList() != nil || len(DecodeRecord(&d).Writes) != 0 {
		t.Fatal("an accessor produced a value after the decoder failed")
	}
	if d.Off != off || !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("failed decoder moved from %d to %d (err = %v)", off, d.Off, d.Err())
	}
}
