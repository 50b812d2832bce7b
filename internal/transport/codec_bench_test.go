package transport

// BenchmarkCodecRoundTrip compares the binary wire codec against a gob
// reference encoder (the v1 framing, retained here — in test code only —
// as the baseline): one representative response, encoded and decoded per
// iteration. The gob encoder/decoder pair is persistent, exactly like a
// v1 connection's, so gob's per-stream type cost is amortized away and
// the comparison isolates steady-state per-message cost.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"

	"tcache/internal/db"
	"tcache/internal/kv"
)

// benchResponse builds the shape the read path actually ships: a 5-key
// batch where every item carries a bounded dependency list.
func benchResponse() Response {
	batch := make([]kv.Lookup, 5)
	for i := range batch {
		deps := make(kv.DepList, 5)
		for j := range deps {
			deps[j] = kv.Dep(kv.Key(fmt.Sprintf("obj-%d", (i+j)%5)), kv.Version{Counter: uint64(100 + i + j), Node: 1})
		}
		batch[i] = kv.Lookup{
			Item: kv.Item{
				Value:   kv.Value("some object payload bytes"),
				Version: kv.Version{Counter: uint64(200 + i), Node: 1},
				Deps:    deps,
			},
			Found: true,
		}
	}
	return Response{Code: CodeOK, Batch: batch}
}

func benchRequest() Request {
	return Request{Op: OpGetBatch, Keys: []kv.Key{"obj-0", "obj-1", "obj-2", "obj-3", "obj-4"}}
}

func BenchmarkCodecRoundTrip(b *testing.B) {
	b.Run("binary/response", func(b *testing.B) {
		resp := benchResponse()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf := getFrameBuf()
			enc := appendResponse((*buf)[:0], &resp)
			got, err := decodeResponse(enc)
			if err != nil || got.Code != CodeOK || len(got.Batch) != 5 {
				b.Fatalf("decode = %+v, %v", got.Code, err)
			}
			*buf = enc
			putFrameBuf(buf)
		}
	})

	b.Run("gob/response", func(b *testing.B) {
		resp := benchResponse()
		var stream bytes.Buffer
		enc := gob.NewEncoder(&stream)
		dec := gob.NewDecoder(&stream)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := enc.Encode(resp); err != nil {
				b.Fatal(err)
			}
			var got Response
			if err := dec.Decode(&got); err != nil {
				b.Fatal(err)
			}
			if got.Code != CodeOK || len(got.Batch) != 5 {
				b.Fatalf("decode = %+v", got.Code)
			}
		}
	})

	b.Run("binary/request", func(b *testing.B) {
		req := benchRequest()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf := getFrameBuf()
			enc := appendRequest((*buf)[:0], &req)
			got, err := decodeRequest(enc)
			if err != nil || len(got.Keys) != 5 {
				b.Fatalf("decode = %+v, %v", got, err)
			}
			*buf = enc
			putFrameBuf(buf)
		}
	})

	b.Run("gob/request", func(b *testing.B) {
		req := benchRequest()
		var stream bytes.Buffer
		enc := gob.NewEncoder(&stream)
		dec := gob.NewDecoder(&stream)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := enc.Encode(req); err != nil {
				b.Fatal(err)
			}
			var got Request
			if err := dec.Decode(&got); err != nil {
				b.Fatal(err)
			}
			if len(got.Keys) != 5 {
				b.Fatalf("decode = %+v", got)
			}
		}
	})
}

// BenchmarkWireRoundTrip measures one live request/response exchange over
// loopback through the multiplexed client — the per-round-trip floor
// under the cold read path.
func BenchmarkWireRoundTrip(b *testing.B) {
	d := db.Open(db.Config{DepBound: 5})
	b.Cleanup(func() { d.Close() })
	srv := NewDBServer(d, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	cli, err := DialDB(bg, addr, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cli.Close)
	if _, err := cli.ValidatedUpdate(bg, nil, []KeyValue{{Key: "k", Value: kv.Value("v")}}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cli.ReadItem(bg, "k"); err != nil {
			b.Fatal(err)
		}
	}
}
