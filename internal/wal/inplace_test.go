package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tcache/internal/kv"
)

// In-place writes can tear with holes: the final, never-acknowledged
// batch is one positioned write over zeros, and a power cut may persist
// any subset of its sectors. These tests build the on-disk images such
// a crash leaves and hold recovery to the torn-tail rule of replay.go.

const sector = 512

// bigRec is a record whose frame spans several sectors, with a value
// free of zero bytes so that every missing sector alters the image.
func bigRec(ver uint64, key kv.Key, size int) Record {
	return Record{Version: v(ver), Writes: []Entry{{Key: key, Value: bytes.Repeat([]byte{0xA5}, size)}}}
}

// holeImage is a crash image of a one-segment log: img is the segment
// file as a crash would leave it (zero fill included), [base, end) is
// the batch under test, and want lists every record in log order.
type holeImage struct {
	img       []byte
	base, end int
	want      []Record
	before    int // records ahead of the batch under test
}

// buildHoleImage logs three one-record batches, then `batch` as one
// group-commit unit, then — when later is set — one more one-record
// batch, and crash-copies the result.
func buildHoleImage(t *testing.T, batch []Record, later bool) holeImage {
	t.Helper()
	dir := t.TempDir()
	l, _ := openLog(t, dir, Options{Sync: true})
	var h holeImage
	var pos Pos
	var err error
	for i := uint64(1); i <= 3; i++ {
		r := rec(i, "k")
		if pos, err = l.Append(r); err != nil {
			t.Fatal(err)
		}
		h.want = append(h.want, r)
	}
	h.before, h.base = len(h.want), int(pos.Off)
	if pos, err = l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	h.end = int(pos.Off)
	h.want = append(h.want, batch...)
	if later {
		r := rec(99, "later")
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		h.want = append(h.want, r)
	}
	if h.img, err = os.ReadFile(lastSegPath(t, crashCopy(t, dir))); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if first, last := h.base/sector, (h.end-1)/sector; last-first+1 < 4 {
		t.Fatalf("batch [%d, %d) spans %d sectors, want ≥ 4", h.base, h.end, last-first+1)
	}
	return h
}

// sectors returns the indices of the file sectors the batch touches.
func (h holeImage) sectors() []int {
	var s []int
	for i := h.base / sector; i <= (h.end-1)/sector; i++ {
		s = append(s, i)
	}
	return s
}

// without returns the image with the batch's share of the given sectors
// never written (still the zero fill), and whether that changed a byte.
func (h holeImage) without(missing []int) ([]byte, bool) {
	img := append([]byte(nil), h.img...)
	for _, s := range missing {
		lo, hi := max(s*sector, h.base), min((s+1)*sector, h.end)
		clear(img[lo:hi])
	}
	return img, !bytes.Equal(img, h.img)
}

// holePatterns is every single-sector-missing pattern followed by n
// seeded random subsets of the batch's sectors.
func holePatterns(h holeImage, rng *rand.Rand, n int) [][]int {
	all := h.sectors()
	var pats [][]int
	for _, s := range all {
		pats = append(pats, []int{s})
	}
	for i := 0; i < n; i++ {
		var p []int
		for _, s := range all {
			if rng.Intn(2) == 0 {
				p = append(p, s)
			}
		}
		pats = append(pats, p)
	}
	return pats
}

// imageDir writes img as the sole segment of a fresh log directory.
func imageDir(t *testing.T, img []byte) (dir, segPath string) {
	t.Helper()
	dir = t.TempDir()
	if err := writeManifest(dir, manifest{FirstSeg: 1}); err != nil {
		t.Fatal(err)
	}
	segPath = filepath.Join(dir, segName(1))
	if err := os.WriteFile(segPath, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, segPath
}

func TestTortureHolesInFinalBatch(t *testing.T) {
	seed := time.Now().UnixNano()
	for _, tc := range []struct {
		name  string
		batch []Record
		exact bool // one frame: any hole loses the whole batch
	}{
		{"one-record", []Record{bigRec(10, "big", 2500)}, true},
		{"six-records", []Record{
			bigRec(10, "a", 400), bigRec(11, "b", 400), bigRec(12, "c", 400),
			bigRec(13, "d", 400), bigRec(14, "e", 400), bigRec(15, "f", 400),
		}, false},
	} {
		h := buildHoleImage(t, tc.batch, false)
		for i, missing := range holePatterns(h, rand.New(rand.NewSource(seed)), 200) {
			id := fmt.Sprintf("%s, seed %d, pattern %d (sectors %v of batch [%d, %d))", tc.name, seed, i, missing, h.base, h.end)
			img, damaged := h.without(missing)
			dir, _ := imageDir(t, img)
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("%s: open: %v", id, err)
			}
			var got []Record
			info, err := l.Replay(ReplayHandler{Record: func(r Record) error { got = append(got, r); return nil }})
			if err != nil {
				t.Fatalf("%s: a torn final batch must replay, got %v", id, err)
			}
			// The acknowledged prefix always survives; of the final batch
			// only whole leading frames may, and none once its single
			// frame is holed.
			if len(got) < h.before || !isPrefix(got, h.want) {
				t.Fatalf("%s: replayed %d records, not the %d acknowledged ones plus a prefix of the batch", id, len(got), h.before)
			}
			if tc.exact && damaged && len(got) != h.before {
				t.Fatalf("%s: replayed %d records, want exactly the %d acknowledged", id, len(got), h.before)
			}
			if lost := len(got) < len(h.want); lost != damaged || (info.TornBytes > 0 && !lost) {
				t.Fatalf("%s: %d of %d records back, TornBytes = %d, image damaged = %v", id, len(got), len(h.want), info.TornBytes, damaged)
			}
			// Appends are armed, and what they write is what comes back:
			// nothing of the torn batch reappears behind the new record.
			next := rec(1000, "next")
			if _, err := l.Append(next); err != nil {
				t.Fatalf("%s: append after recovery: %v", id, err)
			}
			again := crashCopy(t, dir)
			if err := l.Close(); err != nil {
				t.Fatalf("%s: close: %v", id, err)
			}
			for _, d := range []string{dir, again} {
				_, recs, info := replayAll(t, d, Options{})
				if len(recs) != len(got)+1 || !isPrefix(recs[:len(got)], got) || !isPrefix(recs[len(got):], []Record{next}) || info.TornBytes != 0 {
					t.Fatalf("%s: second replay gave %d records (torn %d), want the %d recovered plus the new one", id, len(recs), info.TornBytes, len(got))
				}
			}
		}
	}
}

func TestTortureHolesInEarlierBatchQuarantined(t *testing.T) {
	seed := time.Now().UnixNano()
	h := buildHoleImage(t, []Record{bigRec(10, "a", 700), bigRec(11, "b", 700), bigRec(12, "c", 700)}, true)
	for i, missing := range holePatterns(h, rand.New(rand.NewSource(seed)), 200) {
		id := fmt.Sprintf("seed %d, pattern %d (sectors %v of batch [%d, %d))", seed, i, missing, h.base, h.end)
		img, damaged := h.without(missing)
		if !damaged {
			continue
		}
		dir, segPath := imageDir(t, img)
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("%s: open: %v", id, err)
		}
		_, err = l.Replay(ReplayHandler{})
		l.Close()
		// The batch after the holes was written only once these bytes
		// had been fsynced: they are damaged history, not a torn tail.
		var cse *CorruptSegmentError
		if !errors.As(err, &cse) {
			t.Fatalf("%s: err = %v, want CorruptSegmentError", id, err)
		}
		if after, rerr := os.ReadFile(segPath); rerr != nil || !bytes.Equal(after, img) {
			t.Fatalf("%s: replay modified a quarantined segment (%v)", id, rerr)
		}
	}
}

// TestExtensionStopsAtRotationThreshold pins the file shape at a tiny
// segment size: the fill never runs past the rotation threshold further
// than the batch in hand needs, and sealed segments carry no fill.
func TestExtensionStopsAtRotationThreshold(t *testing.T) {
	const segSize = 128
	dir := t.TempDir()
	l, _ := openLog(t, dir, Options{SegmentSize: segSize})
	for i := uint64(1); i <= 20; i++ {
		end, err := l.Append(rec(i, "k"))
		if err != nil {
			t.Fatal(err)
		}
		if got := fileSize(t, filepath.Join(dir, segName(end.Seq))); got > max(segSize, end.Off) {
			t.Fatalf("append %d ended at %v in a %d-byte file: filled past the %d-byte threshold", i, end, got, segSize)
		}
	}
	m := l.Metrics()
	if m.Rotations == 0 || m.Extends == 0 {
		t.Fatalf("metrics = %+v, want rotations and extensions", m)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range segs[:len(segs)-1] {
		b, err := os.ReadFile(filepath.Join(dir, segName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		off, class := fileHeaderSize, frameOK
		for class == frameOK {
			_, off, class = nextFrame(b, off)
		}
		if class != frameEOF {
			t.Fatalf("sealed segment %d: %s at %d of %d bytes, want frames to EOF", seq, classReason(class), off, len(b))
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, recs, _ := replayAll(t, dir, Options{SegmentSize: segSize}); len(recs) != 20 {
		t.Fatalf("replayed %d records, want 20", len(recs))
	}
}
