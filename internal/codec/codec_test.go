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

// TestRoundTripExact: decode(encode(x)) reproduces x exactly, for the
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
	for _, it := range filled[kv.Item](t, 100) {
		roundTrips(t, it, appendItem, (*Decoder).Item)
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

// roundTrips checks that dec(enc(want)) is want, byte for byte
// consumed, and still is once the encoding is overwritten: what the
// decoder returned owns its bytes.
func roundTrips[T any](t *testing.T, want T, enc func([]byte, *T) []byte, dec func(*Decoder) T) {
	t.Helper()
	d := Decoder{B: enc(nil, &want)}
	got := dec(&d)
	if d.Err() != nil || d.Remaining() != 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("%T round trip: err %v, %d bytes left over\n got %#v\nwant %#v", want, d.Err(), d.Remaining(), got, want)
	}
	scribble(d.B)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T still aliases its encoding:\n got %#v\nwant %#v", want, got, want)
	}
}

// scribble overwrites b with 0xA5, as a payload buffer put to other use
// would be.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xA5
	}
}

// appendItem lays an item out as the wire does: value, version, list.
func appendItem(b []byte, it *kv.Item) []byte {
	return AppendDepList(AppendVersion(AppendBytes(b, it.Value), it.Version), it.Deps)
}

// TestDecoderOwnsKeptItems: what Item, DepList and the record and
// snapshot-entry decoders return survives the payload being overwritten
// (a frame or a segment read going away), while Bytes — for transient
// values — follows it. An item with a dependency list costs two
// allocations: one buffer for the value and the keys, and the list.
func TestDecoderOwnsKeptItems(t *testing.T) {
	it := kv.Item{Value: kv.Value("value-bytes"), Version: v(5), Deps: kv.DepList{{Key: "dep-key", Version: v(4)}, {Key: "", Version: v(3)}}}
	d := Decoder{B: appendItem(nil, &it)}
	got := d.Item()
	scribble(d.B)
	if d.Err() != nil || !reflect.DeepEqual(got, it) {
		t.Fatalf("decoded item follows its payload: %#v", got)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		d := Decoder{B: appendItem(make([]byte, 0, 64), &it)}
		d.Item()
	}); allocs != 3 { // the payload, the buffer, the list
		t.Fatalf("an item with a list decodes in %.0f allocations, want 2 and the payload", allocs)
	}

	d = Decoder{B: AppendBytes(nil, []byte("transient"))}
	b := d.Bytes()
	scribble(d.B)
	if string(b) != "\xa5\xa5\xa5\xa5\xa5\xa5\xa5\xa5\xa5" {
		t.Fatalf("Bytes copied: %q", b)
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
			d := Decoder{B: enc[:i]}
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
			d := Decoder{B: claim}
			if n := decode(&d); n != 0 || !errors.Is(d.Err(), ErrTruncated) {
				t.Errorf("%s %d: decoded %d elements, err = %v", name, huge, n, d.Err())
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
		d.Count(1) != -1 || !d.Version().IsZero() || d.DepList() != nil || d.Item().Value != nil || len(DecodeRecord(&d).Writes) != 0 {
		t.Fatal("an accessor produced a value after the decoder failed")
	}
	if d.Off != off || !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("failed decoder moved from %d to %d (err = %v)", off, d.Off, d.Err())
	}
}
