package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"testing/quick"

	"tcache/internal/codec"
	"tcache/internal/kv"
	"tcache/internal/telemetry"
	"tcache/internal/wal"
)

// sampleRequests covers every field shape the Request encoder handles,
// including the nil/empty distinctions the codec must preserve.
func sampleRequests() []Request {
	return []Request{
		{},
		{Op: OpPing},
		{Op: OpGet, Key: "user:42"},
		{Op: OpGetBatch, Keys: []kv.Key{"a", "b", "c"}},
		{Op: OpReadTxn, Keys: []kv.Key{"k"}},
		{Op: OpReadTxn, Keys: []kv.Key{}},
		{Op: OpSubscribe, Subscriber: "edge-1#4"},
		{Op: OpUpdate, Writes: []KeyValue{
			{Key: "x", Value: kv.Value("v1")},
			{Key: "y", Value: kv.Value{}},
			{Key: "z", Value: nil},
		}, ReadVersions: []ObservedRead{
			{Key: "a", Version: kv.Version{Counter: 7, Node: 2}, Found: true},
			{Key: "gone", Found: false},
		}},
		{Op: OpReplicate, Subscriber: "standby-1", ReplFrom: wal.Pos{Seq: 3, Off: 4096}, ReplCounter: 17},
		{Op: "bogus", Key: "weird\x00key", Subscriber: "ütf8"},
	}
}

// sampleResponses covers every field shape of the Response encoder.
func sampleResponses() []Response {
	return []Response{
		{},
		{Code: CodeOK},
		{Code: CodeNotFound, Err: "nope"},
		{Code: CodeOK, Item: kv.Item{Value: kv.Value("hello")}},
		{Code: CodeOK, Item: kv.Item{Value: kv.Value{}}},
		{Code: CodeOK, Item: kv.Item{
			Value:   kv.Value("payload"),
			Version: kv.Version{Counter: 99, Node: 7},
			Deps: kv.DepList{
				kv.Dep("a", kv.Version{Counter: 1}),
				kv.Dep("b", kv.Version{Counter: 2, Node: 3})},
		}},
		{Code: CodeOK, Version: kv.Version{Counter: 1 << 60, Node: ^uint32(0)}},
		{Code: CodeOK, Version: kv.Version{Counter: 8, Node: 1}, WriteDeps: []kv.DepList{
			{kv.Dep("b", kv.Version{Counter: 8, Node: 1}), kv.Dep("old", kv.Version{Counter: 2})},
			nil,
			{}}},
		{Code: CodeOK, WriteDeps: []kv.DepList{}},
		{Code: CodeOK, Batch: []kv.Lookup{
			{Item: kv.Item{Value: kv.Value("v"), Version: kv.Version{Counter: 5}, Deps: kv.DepList{}}, Found: true},
			{},
		}},
		{Code: CodeOK, Values: []kv.Value{kv.Value("a"), nil, kv.Value{}}},
		{Code: CodeOK, Stats: sampleStats()},
		{Code: CodeOK, Stats: &telemetry.Snapshot{}},
		{Code: CodeOK, Stats: &telemetry.Snapshot{Counters: map[string]uint64{}, Gauges: map[string]uint64{}, Histograms: map[string]telemetry.HistogramSnapshot{}}},
		{Code: CodeAborted, Err: "eq.1 violation"},
		{Code: CodeConflict, Err: "stale", ConflictKey: "a", ConflictVersion: kv.Version{Counter: 9, Node: 1}, ConflictFound: true},
		{Code: CodeNotPrimary, Role: "standby", Leader: "10.0.0.1:7070", Healthy: true, ReplLag: 3, ReplCounter: 41},
		{Code: CodeOK, ReplImage: 1 << 20, ReplPos: wal.Pos{Seq: 2, Off: 16}},
	}
}

// sampleStats is a registry snapshot with all three kinds of metric.
func sampleStats() *telemetry.Snapshot {
	var h telemetry.HistogramSnapshot
	h.Counts[0], h.Counts[7], h.Counts[telemetry.NumBuckets-1], h.Sum = 1, 12, 1, 1<<40
	return &telemetry.Snapshot{
		Counters:   map[string]uint64{"hits": 12, "misses": 3},
		Gauges:     map[string]uint64{"subscribers": 2, "cache_resident_bytes": 1 << 33},
		Histograms: map[string]telemetry.HistogramSnapshot{"read_warm_ns": h, "read_cold_ns": {}},
	}
}

// TestNoStatsIsOneByte: every answer but OpStats carries the stats
// field, so its absence costs one byte and no decode allocation.
func TestNoStatsIsOneByte(t *testing.T) {
	enc := appendStats(nil, nil)
	if len(enc) != 1 {
		t.Fatalf("no stats encodes as %d bytes, want 1", len(enc))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		d := payloadDecoder{codec.Decoder{B: enc}}
		if d.stats() != nil || d.Err() != nil {
			t.Fatal("no stats decoded as stats")
		}
	}); allocs != 0 {
		t.Fatalf("decoding no stats allocates %.0f times", allocs)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range append(sampleRequests(), filled[Request](t, 100)...) {
		enc := appendRequest(nil, &req)
		got, err := decodeRequest(enc)
		if err != nil {
			t.Fatalf("decode(%+v): %v", req, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, req)
		}
	}
}

// TestResponseRoundTrip also checks that what a caller keeps of an
// answer (see kept) survives the payload being overwritten.
func TestResponseRoundTrip(t *testing.T) {
	for _, resp := range append(sampleResponses(), filled[Response](t, 100)...) {
		enc := appendResponse(nil, &resp)
		got, err := decodeResponse(enc)
		if err != nil {
			t.Fatalf("decode(%+v): %v", resp, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, resp)
		}
		if scribble(enc); !reflect.DeepEqual(kept(got), kept(resp)) {
			t.Fatalf("decoded items alias the payload:\n got %#v\nwant %#v", kept(got), kept(resp))
		}
	}
}

// TestReplRecordsRoundTrip: a replication frame's records decode to what
// was encoded, and keep doing so once the payload is overwritten.
func TestReplRecordsRoundTrip(t *testing.T) {
	for _, recs := range [][]wal.Record{nil, {}, filled[wal.Record](t, 100)} {
		start, end := wal.Pos{Seq: 2, Off: 16}, wal.Pos{Seq: 3, Off: 1 << 20}
		enc := appendReplRecords(nil, start, end, recs)
		gotStart, gotEnd, got, err := decodeReplRecords(enc)
		if err != nil || gotStart != start || gotEnd != end || !reflect.DeepEqual(got, recs) {
			t.Fatalf("round trip = %v, %v, %v:\n got %#v\nwant %#v", gotStart, gotEnd, err, got, recs)
		}
		if scribble(enc); !reflect.DeepEqual(got, recs) {
			t.Fatalf("decoded records alias the payload:\n got %#v\nwant %#v", got, recs)
		}
	}
}

// TestDecodeOwnsKeptItems: every message that carries items a caller
// keeps — a single OpGet answer, a batch answer, a commit's lists and a
// replication frame — decodes into items that own their bytes: they
// equal what was encoded after the payload is overwritten.
func TestDecodeOwnsKeptItems(t *testing.T) {
	item := kv.Item{Value: kv.Value("value-bytes"), Version: kv.Version{Counter: 7, Node: 1}, Deps: kv.DepList{
		kv.Dep("dep-a", kv.Version{Counter: 1}),
		kv.Dep("", kv.Version{Counter: 2})}}
	for name, resp := range map[string]Response{
		"get":    {Code: CodeOK, Item: item},
		"batch":  {Code: CodeOK, Batch: []kv.Lookup{{Item: item, Found: true}, {}}},
		"commit": {Code: CodeOK, Version: item.Version, WriteDeps: []kv.DepList{item.Deps, nil}},
	} {
		enc := appendResponse(nil, &resp)
		got, err := decodeResponse(enc)
		if scribble(enc); err != nil || !reflect.DeepEqual(kept(got), kept(resp)) {
			t.Errorf("%s answer (err %v) aliases its payload:\n got %#v\nwant %#v", name, err, kept(got), kept(resp))
		}
	}
	recs := []wal.Record{{Version: item.Version, Writes: []wal.Entry{{Key: "k", Value: item.Value, Deps: item.Deps}}}}
	enc := appendReplRecords(nil, wal.Pos{}, wal.Pos{}, recs)
	_, _, got, err := decodeReplRecords(enc)
	if scribble(enc); err != nil || !reflect.DeepEqual(got, recs) {
		t.Errorf("replication records (err %v) alias their payload:\n got %#v\nwant %#v", err, got, recs)
	}
}

// kept is what a caller keeps of an answer past its frame: the single
// answer's item, the batch's items and the commit's lists. A read
// transaction's values are transient and may alias the frame.
func kept(r Response) Response {
	return Response{Item: r.Item, Batch: r.Batch, WriteDeps: r.WriteDeps}
}

// scribble overwrites b with 0xA5, as a frame buffer put to other use
// would be.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xA5
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

func TestInvalidationRoundTrip(t *testing.T) {
	batches := [][]Invalidation{
		{{Key: "k", Version: kv.Version{Counter: 9, Node: 2}}},
		{{Key: "a"}, {Key: "b", Version: kv.Version{Counter: 1}}, {Key: "c", Version: kv.Version{Counter: 1 << 50}}},
	}
	for _, invs := range batches {
		enc := appendInvalidations(nil, invs)
		got, err := decodeInvalidations(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, invs) {
			t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, invs)
		}
	}
}

// TestDecodeTruncatedNeverPanics feeds every strict prefix of valid
// encodings to the decoders: each must error (the message is incomplete)
// and none may panic.
func TestDecodeTruncatedNeverPanics(t *testing.T) {
	for _, req := range sampleRequests() {
		enc := appendRequest(nil, &req)
		for i := 0; i < len(enc); i++ {
			if _, err := decodeRequest(enc[:i]); err == nil {
				t.Fatalf("truncated request decode at %d/%d succeeded", i, len(enc))
			}
		}
	}
	for _, resp := range sampleResponses() {
		enc := appendResponse(nil, &resp)
		for i := 0; i < len(enc); i++ {
			if _, err := decodeResponse(enc[:i]); err == nil {
				t.Fatalf("truncated response decode at %d/%d succeeded", i, len(enc))
			}
		}
	}
}

// TestDecodeOversizedCountErrs builds message payloads whose element
// counts claim absurd lengths; the decoder must reject them without
// attempting the allocation. (The value-level counts — dependency lists,
// record writes — are covered with the shared codec.)
func TestDecodeOversizedCountErrs(t *testing.T) {
	// A response up to and including Version; the counted fields follow.
	var head []byte
	head = binary.AppendUvarint(head, uint64(CodeOK)) // Code
	head = codec.AppendString(head, "")               // Err
	head = appendItem(head, kv.Item{})                // Item
	head = codec.AppendVersion(head, kv.Version{})    // Version
	huge := func(b []byte) []byte { return binary.AppendUvarint(b, (1<<40)+1) }
	for name, payload := range map[string][]byte{
		"2^40 dependency lists":           huge(head[:len(head):len(head)]),
		"one list of 2^40 entries":        huge(codec.AppendCount(head[:len(head):len(head)], 1)),
		"2^40 lookups after no dep lists": huge(appendDepLists(head[:len(head):len(head)], nil)),
	} {
		if _, err := decodeResponse(payload); !errors.Is(err, codec.ErrTruncated) {
			t.Fatalf("%s: err = %v, want codec.ErrTruncated", name, err)
		}
	}

	// An invalidation batch claiming 2^40 entries.
	inv := binary.AppendUvarint(nil, (1<<40)+1)
	if _, err := decodeInvalidations(inv); !errors.Is(err, codec.ErrTruncated) {
		t.Fatalf("oversized invalidation count: err = %v, want codec.ErrTruncated", err)
	}
}

// TestFrameReaderResync writes garbage between two valid frames; the
// reader must skip to the next frame boundary instead of failing the
// stream.
func TestFrameReaderResync(t *testing.T) {
	var stream bytes.Buffer
	req1 := Request{Op: OpPing}
	if err := writeRequestFrame(&stream, nil, 1, &req1); err != nil {
		t.Fatal(err)
	}
	stream.WriteString("!!this is not a frame boundary!!")
	req2 := Request{Op: OpGet, Key: "k"}
	if err := writeRequestFrame(&stream, nil, 2, &req2); err != nil {
		t.Fatal(err)
	}

	fr := newFrameReader(&stream, nil)
	typ, id, payload, err := fr.Read()
	if err != nil || typ != frameRequest || id != 1 {
		t.Fatalf("frame 1 = (%d, %d, %v)", typ, id, err)
	}
	if got, err := decodeRequest(payload); err != nil || got.Op != OpPing {
		t.Fatalf("frame 1 decode = %+v, %v", got, err)
	}
	typ, id, payload, err = fr.Read()
	if err != nil || typ != frameRequest || id != 2 {
		t.Fatalf("frame 2 after garbage = (%d, %d, %v)", typ, id, err)
	}
	if got, err := decodeRequest(payload); err != nil || got.Key != "k" {
		t.Fatalf("frame 2 decode = %+v, %v", got, err)
	}
	if fr.Resyncs != 1 {
		t.Fatalf("Resyncs = %d, want 1", fr.Resyncs)
	}
}

// TestFrameReaderOversizedLengthResyncs feeds a header whose length field
// exceeds the frame cap: the reader must treat it as garbage (no giant
// allocation) and resync onto the following valid frame.
func TestFrameReaderOversizedLengthResyncs(t *testing.T) {
	var stream bytes.Buffer
	bad := beginFrame(nil, frameRequest, 9)
	bad[frameHeaderSize-4] = 0xFF // length = 0xFF000000 > maxFramePayload
	stream.Write(bad)
	req := Request{Op: OpPing}
	if err := writeRequestFrame(&stream, nil, 3, &req); err != nil {
		t.Fatal(err)
	}
	fr := newFrameReader(&stream, nil)
	typ, id, _, err := fr.Read()
	if err != nil || typ != frameRequest || id != 3 {
		t.Fatalf("frame after oversized header = (%d, %d, %v)", typ, id, err)
	}
	if fr.Resyncs == 0 {
		t.Fatal("oversized header accepted without resync")
	}
}

func TestFrameReaderEOFOnGarbageOnly(t *testing.T) {
	fr := newFrameReader(bytes.NewBufferString("garbage with no frame in it whatsoever"), nil)
	if _, _, _, err := fr.Read(); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("garbage-only stream: err = %v, want EOF", err)
	}
}

// FuzzCodecRoundTrip drives the request, response, invalidation and
// replication-records decoders with arbitrary bytes: they must never
// panic and never over-allocate, anything they accept must survive an
// encode/decode round trip unchanged, and the items a caller keeps must
// own their bytes.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, req := range sampleRequests() {
		f.Add(appendRequest(nil, &req))
	}
	for _, resp := range sampleResponses() {
		f.Add(appendResponse(nil, &resp))
	}
	f.Add(appendInvalidations(nil, []Invalidation{{Key: "k", Version: kv.Version{Counter: 3}}}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Add(appendReplRecords(nil, wal.Pos{Seq: 1}, wal.Pos{Seq: 1, Off: 9}, []wal.Record{{Version: kv.Version{Counter: 4}, Writes: []wal.Entry{
		{Key: "a", Value: kv.Value("v"), Deps: kv.DepList{kv.Dep("b", kv.Version{Counter: 4})}},
	}}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := decodeRequest(data); err == nil {
			enc := appendRequest(nil, &req)
			again, err := decodeRequest(enc)
			if err != nil {
				t.Fatalf("re-decode request: %v", err)
			}
			if !reflect.DeepEqual(again, req) {
				t.Fatalf("request round trip diverged:\n got %#v\nwant %#v", again, req)
			}
		}
		if resp, err := decodeResponse(data); err == nil {
			enc := appendResponse(nil, &resp)
			again, err := decodeResponse(enc)
			if err != nil {
				t.Fatalf("re-decode response: %v", err)
			}
			if !reflect.DeepEqual(again, resp) {
				t.Fatalf("response round trip diverged:\n got %#v\nwant %#v", again, resp)
			}
			if scribble(enc); !reflect.DeepEqual(kept(again), kept(resp)) {
				t.Fatalf("decoded items alias the payload:\n got %#v\nwant %#v", kept(again), kept(resp))
			}
		}
		if start, end, recs, err := decodeReplRecords(data); err == nil {
			enc := appendReplRecords(nil, start, end, recs)
			_, _, again, err := decodeReplRecords(enc)
			if err != nil {
				t.Fatalf("re-decode replication records: %v", err)
			}
			if !reflect.DeepEqual(again, recs) {
				t.Fatalf("replication records round trip diverged:\n got %#v\nwant %#v", again, recs)
			}
			if scribble(enc); !reflect.DeepEqual(again, recs) {
				t.Fatalf("decoded records alias the payload:\n got %#v\nwant %#v", again, recs)
			}
		}
		if invs, err := decodeInvalidations(data); err == nil {
			enc := appendInvalidations(nil, invs)
			again, err := decodeInvalidations(enc)
			if err != nil {
				t.Fatalf("re-decode invalidations: %v", err)
			}
			if !reflect.DeepEqual(again, invs) {
				t.Fatalf("invalidation round trip diverged:\n got %#v\nwant %#v", again, invs)
			}
		}
	})
}

func TestHandshakeRoundTrip(t *testing.T) {
	hs := handshakeBytes()
	v, err := readHandshake(bytes.NewReader(hs[:]))
	if err != nil || v != ProtocolVersion {
		t.Fatalf("readHandshake = (%d, %v)", v, err)
	}
	if _, err := readHandshake(bytes.NewReader([]byte("NOPE0000"))); !errors.Is(err, errNotWirePeer) {
		t.Fatalf("bad magic: err = %v", err)
	}
	if _, err := readHandshake(bytes.NewReader([]byte{'T', 'C'})); err == nil {
		t.Fatal("short handshake accepted")
	}
}

// TestHandshakeRefusesV6: the update response grew a field in v7, and
// v11's stats answer is a typed snapshot where v10's was a flat map, so
// a v6 or v10 peer — whose decoder would misread responses — is turned
// away by either side before any frame is exchanged.
func TestHandshakeRefusesV6(t *testing.T) {
	for _, old := range []byte{6, 10} {
		hs := handshakeBytes()
		hs[4] = old
		for side, shake := range map[string]func(net.Conn, io.Reader) error{"server": serverHandshake, "client": clientHandshake} {
			local, peer := net.Pipe()
			// The peer presents the old version and swallows whatever we
			// send (net.Pipe is unbuffered, so each direction needs its own
			// goroutine).
			go io.Copy(io.Discard, peer)
			go peer.Write(hs[:])
			err := shake(local, local)
			var vm *VersionMismatchError
			if !errors.As(err, &vm) || vm.Local != ProtocolVersion || vm.Peer != old {
				t.Errorf("%s handshake with a v%d peer = %v, want a v%d/v%d mismatch", side, old, err, ProtocolVersion, old)
			}
			local.Close()
			peer.Close()
		}
	}
}
