package wal

// Snapshots (checkpoints). A snapshot file holds a consistent
// point-in-time image of the store: a meta frame with the version
// counter, one frame per live object, and a footer frame with the entry
// count. The file covers every segment below its cut sequence. It is
// the one state image of the system: recovery loads it, and a joining
// replica receives the primary's newest one (OpenSnapshot) and checks it
// with the same parser, ReadSnapshot.
//
// The commit protocol is crash-safe at every step:
//
//  1. write snap-<cut>.snap.tmp fully, fsync      (crash → tmp removed at Open)
//  2. rename to snap-<cut>.snap, fsync dir        (crash → unreferenced snap removed at Open)
//  3. write MANIFEST{first-seg: cut, snapshot}    (crash → old manifest still valid, all segments intact)
//  4. delete covered segments + old snapshot      (crash → leftovers removed at Open)
//
// Until step 3 lands, recovery uses the previous manifest and the full
// segment run; after it, recovery uses the new snapshot and the tail.
// In no window is any durable commit unreachable.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"tcache/internal/codec"
)

// SnapshotWriter streams one checkpoint. Not safe for concurrent use;
// the database serializes snapshot production.
type SnapshotWriter struct {
	l       *Log
	cut     uint64
	counter uint64
	tmp     string
	final   string
	f       *os.File
	bw      *bufio.Writer
	entries uint64
	done    bool
}

// BeginSnapshot starts writing a checkpoint covering every segment
// below cut (a sequence returned by Rotate). counter is the version
// counter at the cut — recovery restores it even if every individual
// entry carries a lower version. Exactly one snapshot may be in flight.
func (l *Log) BeginSnapshot(cut uint64, counter uint64) (*SnapshotWriter, error) {
	l.mu.Lock()
	if !l.replayed || l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	l.mu.Unlock()
	l.fileMu.Lock()
	if l.snapping {
		l.fileMu.Unlock()
		return nil, ErrSnapshotInProgress
	}
	if cut <= l.firstSeg || cut > l.seq {
		first := l.firstSeg
		l.fileMu.Unlock()
		return nil, fmt.Errorf("wal: snapshot cut %d outside live range (%d, %d]", cut, first, l.seq)
	}
	l.snapping = true
	l.fileMu.Unlock()

	final := snapName(cut)
	tmp := filepath.Join(l.dir, final+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		l.clearSnapping()
		return nil, err
	}
	w := &SnapshotWriter{l: l, cut: cut, counter: counter, tmp: tmp, final: final, f: f, bw: bufio.NewWriterSize(f, 1<<16)}
	if _, err := w.bw.Write(fileHeader(snapMagic, cut)); err != nil {
		w.fail()
		return nil, err
	}
	// Meta frame: the durable version counter.
	if _, err := w.bw.Write(appendFramed(nil, binary.AppendUvarint([]byte{kindSnapMeta}, counter))); err != nil {
		w.fail()
		return nil, err
	}
	return w, nil
}

func (l *Log) clearSnapping() {
	l.fileMu.Lock()
	l.snapping = false
	l.fileMu.Unlock()
}

// Add writes one live object into the snapshot.
func (w *SnapshotWriter) Add(e SnapshotEntry) error {
	if w.done {
		return ErrClosed
	}
	buf := getBuf()
	payload := appendSnapshotEntry((*buf)[:0], &e)
	*buf = payload
	if len(payload) > maxRecordSize {
		putBuf(buf)
		w.fail()
		return ErrRecordTooLarge
	}
	_, err := w.bw.Write(appendFramed(nil, payload))
	putBuf(buf)
	if err != nil {
		w.fail()
		return err
	}
	w.entries++
	return nil
}

// Commit finalizes the snapshot: footer, fsync, rename, manifest
// advance, then deletion of the covered segments and the previous
// snapshot. On return the checkpoint is the recovery root.
func (w *SnapshotWriter) Commit() error {
	if w.done {
		return ErrClosed
	}
	w.done = true
	l := w.l
	defer l.clearSnapping()

	_, err := w.bw.Write(appendFramed(nil, binary.AppendUvarint([]byte{kindSnapFooter}, w.entries)))
	if err == nil {
		err = w.bw.Flush()
	}
	if err == nil {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(w.tmp)
		return err
	}
	if err := os.Rename(w.tmp, filepath.Join(l.dir, w.final)); err != nil {
		os.Remove(w.tmp)
		return err
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	if err := writeManifest(l.dir, manifest{FirstSeg: w.cut, Snapshot: w.final}); err != nil {
		return err
	}

	l.fileMu.Lock()
	oldFirst := l.firstSeg
	oldSnap := l.snap
	l.firstSeg = w.cut
	l.snap = w.final
	l.snapCtr = w.counter
	l.fileMu.Unlock()

	// Truncate obsolete history. Failures here are harmless (Open
	// removes leftovers), so deletion is best-effort.
	for seq := oldFirst; seq < w.cut; seq++ {
		_ = os.Remove(filepath.Join(l.dir, segName(seq)))
	}
	if oldSnap != "" && oldSnap != w.final {
		_ = os.Remove(filepath.Join(l.dir, oldSnap))
	}
	return nil
}

// Abort discards the in-flight snapshot.
func (w *SnapshotWriter) Abort() {
	if w.done {
		return
	}
	w.fail()
}

func (w *SnapshotWriter) fail() {
	w.done = true
	w.f.Close()
	os.Remove(w.tmp)
	w.l.clearSnapping()
}

// OpenSnapshot opens the newest committed snapshot and returns it with
// its cut (the log from Pos{Seq: cut} on top of it converges) and
// counter, or a nil file; it stays readable if a newer one deletes it.
func (l *Log) OpenSnapshot() (f *os.File, cut, counter uint64, err error) {
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	if l.snap == "" {
		return nil, 0, 0, nil
	}
	f, err = os.Open(filepath.Join(l.dir, l.snap))
	return f, l.firstSeg, l.snapCtr, err
}

// ReadSnapshot parses a whole snapshot image that must cover the
// segments below cut — a file's bytes at recovery, or an image a joining
// replica received — passing each entry to h.Snapshot, and returns its
// version counter and entry count. Every defect, a short tail included,
// is a CorruptSnapshotError; an error from h is returned as is.
func ReadSnapshot(b []byte, cut uint64, h ReplayHandler) (counter uint64, entries int, err error) {
	corrupt := func(reason string) (uint64, int, error) {
		return 0, 0, &CorruptSnapshotError{Reason: reason}
	}
	if reason := checkFileHeader(b, snapMagic, cut); reason != "" {
		return corrupt(reason)
	}

	off := fileHeaderSize
	payload, next, class := nextFrame(b, off)
	if class != frameOK || len(payload) < 1 || payload[0] != kindSnapMeta {
		return corrupt("missing meta frame")
	}
	d := codec.Decoder{B: payload, Off: 1}
	counter = d.Uvarint()
	if d.Err() != nil || d.Remaining() != 0 {
		return corrupt("bad meta frame")
	}
	off = next

	for {
		payload, next, class = nextFrame(b, off)
		if class == frameEOF {
			return corrupt("missing footer frame")
		}
		if class != frameOK || len(payload) < 1 {
			return corrupt(fmt.Sprintf("unreadable frame at offset %d: %s", off, classReason(class)))
		}
		if payload[0] == kindSnapFooter {
			d := codec.Decoder{B: payload, Off: 1}
			want := d.Uvarint()
			if d.Err() != nil || d.Remaining() != 0 {
				return corrupt("bad footer frame")
			}
			if want != uint64(entries) {
				return corrupt(fmt.Sprintf("footer count %d != %d entries", want, entries))
			}
			if next != len(b) {
				return corrupt("trailing bytes after footer")
			}
			return counter, entries, nil
		}
		e, derr := decodeSnapshotEntry(payload)
		if derr != nil {
			return corrupt(fmt.Sprintf("bad entry at offset %d", off))
		}
		if h.Snapshot != nil {
			if herr := h.Snapshot(e); herr != nil {
				return 0, 0, herr
			}
		}
		entries++
		off = next
	}
}
