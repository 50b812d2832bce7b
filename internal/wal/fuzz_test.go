package wal

import (
	"errors"
	"testing"

	"tcache/internal/kv"
)

// FuzzWALReplay feeds arbitrary bytes as the sole segment of a log —
// truncated, bit-flipped, garbage-prefixed, anything — and checks the
// recovery invariants:
//
//   - Replay never panics and never over-allocates on hostile lengths.
//   - It either succeeds or fails with a named ErrCorrupt error.
//   - On success, re-replaying the directory yields byte-identical
//     records (the torn tail was zeroed, so recovery is stable):
//     replay can only ever surface records that were actually framed,
//     CRC-validated, and decoded — never invented ones.
func FuzzWALReplay(f *testing.F) {
	// Seed with realistic shapes: a valid log, a torn tail, a bit flip,
	// a garbage prefix, snapshot-looking bytes in a segment, and what
	// in-place writes leave: a zero fill after the frames, and a final
	// three-frame batch with a hole in its first or its middle frame.
	fuzzRec := func(i uint64) Record {
		return Record{Version: kv.Version{Counter: i}, Writes: []Entry{{
			Key:   "k",
			Value: kv.Value("v"),
			Deps:  kv.DepList{{Key: "d", Version: kv.Version{Counter: i - 1}}},
		}}}
	}
	valid := fileHeader(segMagic, 1)
	for i := uint64(1); i <= 3; i++ {
		r := fuzzRec(i)
		valid = appendFramed(valid, appendRecordPayload(nil, &r))
	}
	f.Add(valid)
	fill := make([]byte, 300)
	f.Add(append(valid[:len(valid):len(valid)], fill...))
	var batch []byte
	for i := uint64(4); i <= 6; i++ {
		r := fuzzRec(i)
		batch, _ = appendRecordFrame(batch, &r)
	}
	closeFrames(batch, 0)
	frame := len(batch) / 3
	for _, hole := range []int{0, frame} {
		holed := append([]byte(nil), batch...)
		clear(holed[hole+2 : hole+frame-2])
		f.Add(append(append(valid[:len(valid):len(valid)], holed...), fill...))
	}
	f.Add(valid[:len(valid)-5])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add(append([]byte("garbage-prefix"), valid...))
	f.Add(fileHeader(snapMagic, 1))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir, _ := imageDir(t, data)
		first := replayOnce(t, dir)
		if first == nil {
			return // named corruption error: acceptable, log untouched
		}
		// Success: recovery zeroed any torn tail, so a second
		// recovery must see the exact same committed prefix.
		second := replayOnce(t, dir)
		if second == nil {
			t.Fatal("first replay succeeded, second reported corruption")
		}
		if len(first) != len(second) {
			t.Fatalf("unstable recovery: %d then %d records", len(first), len(second))
		}
		for i := range first {
			if first[i].Version != second[i].Version || len(first[i].Writes) != len(second[i].Writes) {
				t.Fatalf("record %d changed between replays", i)
			}
		}
	})
}

// replayOnce opens and replays dir, returning the records or nil on a
// (mandatory-named) corruption error. The empty and nil record slices
// are distinguished so callers can tell "no records" from "error".
func replayOnce(t *testing.T, dir string) []Record {
	t.Helper()
	l, err := Open(dir, Options{})
	if err != nil {
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrMissingManifest) {
			t.Fatalf("Open failed with unnamed error: %v", err)
		}
		return nil
	}
	defer l.Close()
	recs := []Record{}
	_, err = l.Replay(ReplayHandler{Record: func(r Record) error {
		recs = append(recs, r)
		return nil
	}})
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Replay failed with unnamed error: %v", err)
		}
		return nil
	}
	return recs
}
