package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
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
//   - Every frame that decodes as a commit record or a snapshot entry
//     decodes into items that own their bytes (ownsDecoded).
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
	entry := SnapshotEntry{Key: "k", Value: kv.Value("v"), Version: kv.Version{Counter: 2}, Deps: kv.DepList{{Key: "d", Version: kv.Version{Counter: 1}}}}
	f.Add(appendFramed(fileHeader(segMagic, 1), appendSnapshotEntry(nil, &entry)))

	f.Fuzz(func(t *testing.T, data []byte) {
		for off := fileHeaderSize; off < len(data); {
			payload, next, class := nextFrame(data, off)
			if class != frameOK {
				break
			}
			ownsDecoded(t, payload)
			off = next
		}
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

// TestLogDecodeOwnsItems: a commit record and a snapshot entry decode
// into items that own their bytes, so a recovered store pins no segment
// read (see ownsDecoded).
func TestLogDecodeOwnsItems(t *testing.T) {
	deps := kv.DepList{{Key: "dep-key", Version: kv.Version{Counter: 4}}, {Key: "", Version: kv.Version{Counter: 1}}}
	rec := Record{Version: kv.Version{Counter: 5}, Writes: []Entry{
		{Key: "a", Value: kv.Value("value-a"), Deps: deps},
		{Key: "b", Value: kv.Value{}, Deps: nil},
	}}
	entry := SnapshotEntry{Key: "a", Value: kv.Value("value-a"), Version: kv.Version{Counter: 5}, Deps: deps}
	for _, payload := range [][]byte{appendRecordPayload(nil, &rec), appendSnapshotEntry(nil, &entry)} {
		ownsDecoded(t, payload)
	}
	got, err := decodeRecordPayload(appendRecordPayload(nil, &rec))
	if err != nil || !reflect.DeepEqual(got, rec) {
		t.Fatalf("record round trip = %#v, %v", got, err)
	}
}

// ownsDecoded decodes a copy of a frame payload as a commit record and
// as a snapshot entry, then overwrites the copy with 0xA5: whatever
// decoded must still equal the same decode of the untouched payload.
func ownsDecoded(t *testing.T, payload []byte) {
	t.Helper()
	p := bytes.Clone(payload)
	rec, recErr := decodeRecordPayload(p)
	entry, entryErr := decodeSnapshotEntry(p)
	for i := range p {
		p[i] = 0xA5
	}
	if want, _ := decodeRecordPayload(payload); recErr == nil && !reflect.DeepEqual(rec, want) {
		t.Fatalf("decoded record aliases its payload:\n got %#v\nwant %#v", rec, want)
	}
	if want, _ := decodeSnapshotEntry(payload); entryErr == nil && !reflect.DeepEqual(entry, want) {
		t.Fatalf("decoded snapshot entry aliases its payload:\n got %#v\nwant %#v", entry, want)
	}
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

// FuzzSnapshotImage feeds arbitrary bytes to ReadSnapshot, the parser
// that reads a snapshot image both at recovery and on a joining replica,
// whose image comes off the network:
//
//   - It never panics and never over-allocates on hostile lengths.
//   - It either fails with a named ErrCorrupt error or accepts an image
//     that, written out again, parses to the same counter and entries.
//
// The seeds are a snapshot file written by SnapshotWriter, and that
// file truncated, bit-flipped, checked against the wrong cut, and with
// trailing bytes — each of which must be rejected.
func FuzzSnapshotImage(f *testing.F) {
	valid, cut := writtenSnapshot(f)
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x40
	wrongCut := bytes.Clone(valid)
	copy(wrongCut, fileHeader(snapMagic, cut+1))
	bad := [][]byte{valid[:len(valid)-5], flipped, wrongCut, append(bytes.Clone(valid), 0, 1, 2)}

	parse := func(b []byte) (uint64, []SnapshotEntry, error) {
		var got []SnapshotEntry
		counter, n, err := ReadSnapshot(b, cut, ReplayHandler{Snapshot: func(e SnapshotEntry) error {
			got = append(got, e)
			return nil
		}})
		if err == nil && n != len(got) {
			err = fmt.Errorf("ReadSnapshot counted %d entries, handed over %d", n, len(got))
		}
		return counter, got, err
	}
	if counter, entries, err := parse(valid); err != nil || !bytes.Equal(snapshotImage(cut, counter, entries), valid) {
		f.Fatalf("the written snapshot does not re-encode to itself: %v", err)
	}
	f.Add(valid)
	for i, b := range bad {
		if _, _, err := parse(b); !errors.Is(err, ErrCorrupt) {
			f.Fatalf("bad seed %d: err = %v, want ErrCorrupt", i, err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		counter, entries, err := parse(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("ReadSnapshot failed with unnamed error: %v", err)
			}
			return
		}
		counter2, entries2, err := parse(snapshotImage(cut, counter, entries))
		if err != nil || counter2 != counter || !reflect.DeepEqual(entries2, entries) {
			t.Fatalf("accepted image does not re-parse identically: counter %d then %d, %d then %d entries, err %v",
				counter, counter2, len(entries), len(entries2), err)
		}
	})
}

// writtenSnapshot commits a snapshot of three entries through a real
// log and returns its file's bytes (read through OpenSnapshot) and cut.
func writtenSnapshot(f *testing.F) ([]byte, uint64) {
	l, err := Open(f.TempDir(), Options{})
	if err != nil {
		f.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Replay(ReplayHandler{}); err != nil {
		f.Fatal(err)
	}
	cut, err := l.Rotate()
	if err != nil {
		f.Fatal(err)
	}
	sw, err := l.BeginSnapshot(cut, 9)
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := sw.Add(SnapshotEntry{
			Key:     kv.Key([]byte{'k', byte('0' + i)}),
			Value:   bytes.Repeat([]byte("v"), int(i)),
			Version: kv.Version{Counter: i},
			Deps:    kv.DepList{{Key: "d", Version: kv.Version{Counter: i - 1}}},
		}); err != nil {
			f.Fatal(err)
		}
	}
	if err := sw.Commit(); err != nil {
		f.Fatal(err)
	}
	file, snapCut, counter, err := l.OpenSnapshot()
	if err != nil || file == nil || snapCut != cut || counter != 9 {
		f.Fatalf("OpenSnapshot = %v, cut %d, counter %d, %v; want the snapshot at cut %d, counter 9", file, snapCut, counter, err, cut)
	}
	defer file.Close()
	b, err := io.ReadAll(file)
	if err != nil {
		f.Fatal(err)
	}
	return b, cut
}

// snapshotImage frames counter and entries the way SnapshotWriter does.
func snapshotImage(cut, counter uint64, entries []SnapshotEntry) []byte {
	b := appendFramed(fileHeader(snapMagic, cut), binary.AppendUvarint([]byte{kindSnapMeta}, counter))
	for i := range entries {
		b = appendFramed(b, appendSnapshotEntry(nil, &entries[i]))
	}
	return appendFramed(b, binary.AppendUvarint([]byte{kindSnapFooter}, uint64(len(entries))))
}
