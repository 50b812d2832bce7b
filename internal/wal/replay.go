package wal

// Recovery. Replay reads the snapshot (if any) and every live segment
// in order, then arms the log for appending.
//
// Every segment but the last is sealed: exactly its header and frames,
// fully fsynced. Anything unreadable there is damaged history, and
// replay refuses with CorruptSegmentError rather than drop it.
//
// The last segment is the active one, written in place into a zero
// fill: zeros from a frame boundary to EOF are the clean end of the
// log. Anything else unreadable, at offset X, is either the torn final
// batch or damaged history. Under Options.Sync a batch is fsynced
// before the next is written, so at most one batch — the last, never
// acknowledged — can be partly on disk; being a positioned write it may
// be there with holes, any of its sectors persisted and any not. Every
// frame says where its batch began (record.go), so:
//
//   - X is a torn tail iff no valid frame after X belongs to a batch
//     that began after X: whatever still parses beyond the tear is more
//     of the same unacknowledged batch. The tail is zeroed.
//   - A valid frame of a batch that began after X proves the bytes at X
//     were fsynced before that batch was written — durable history
//     once — and replay refuses, leaving the file untouched.
//
// Without Options.Sync the log promises process-crash safety only (the
// page cache survives whole); after a power loss any unsynced batch may
// have the holes, which the rule reports as the corruption they are.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// ReplayHandler receives recovered state in order: every snapshot entry
// first, then every commit record in log order. Handlers that return an
// error abort replay.
type ReplayHandler struct {
	Snapshot func(SnapshotEntry) error
	Record   func(Record) error
}

// ReplayInfo summarizes a recovery.
type ReplayInfo struct {
	// Counter is the highest durable version counter: the snapshot's
	// saved counter or the largest replayed record version, whichever is
	// greater. A restarted database must never mint below it.
	Counter uint64
	// SnapshotEntries is the number of objects loaded from the snapshot.
	SnapshotEntries int
	// Records is the number of commit records replayed from segments.
	Records int
	// Segments is the number of live segments scanned.
	Segments int
	// TornBytes is the size of the discarded torn tail, from the first
	// unreadable frame to the last non-zero byte (0 = clean: the active
	// segment's zero fill is not damage and is not counted).
	TornBytes int64
}

// frame iteration errors (internal classification).
type frameErrClass int

const (
	frameOK frameErrClass = iota
	frameEOF
	frameShort   // incomplete header or payload at end of data: torn candidate
	frameBadLen  // length field exceeds maxRecordSize
	frameBadCRC  // checksum mismatch
	frameBadBody // CRC matched but payload did not decode
)

// nextFrame reads one frame at off. It returns the payload, the offset
// after the frame, and a classification.
func nextFrame(b []byte, off int) ([]byte, int, frameErrClass) {
	if off == len(b) {
		return nil, off, frameEOF
	}
	if len(b)-off < frameHeaderSize {
		return nil, off, frameShort
	}
	n := int(binary.LittleEndian.Uint32(b[off : off+4]))
	if n > maxRecordSize {
		return nil, off, frameBadLen
	}
	if len(b)-off-frameHeaderSize < n {
		return nil, off, frameShort
	}
	want := binary.LittleEndian.Uint32(b[off+4 : off+8])
	payload := b[off+frameHeaderSize : off+frameHeaderSize+n]
	if crc32.Update(crc32.Checksum(payload, castagnoli), castagnoli, b[off+8:off+12]) != want {
		return nil, off, frameBadCRC
	}
	return payload, off + frameHeaderSize + n, frameOK
}

// lookahead scan bounds: damaged history is distinguished from a torn
// tail by finding a later batch, but the scan must stay cheap on
// hostile input (fuzzing feeds megabytes of garbage).
const (
	scanWindow      = 4 << 20
	scanMaxAttempts = 1 << 16
)

// laterBatchAfter reports whether any byte offset in (from, end) parses
// as a valid commit-record frame of a batch that began after from —
// proof that the damage at from was durable history once, not the torn
// final batch. The length and kind-byte prefilter rejects the zero
// holes and ~255/256 of random positions before the CRC runs.
func laterBatchAfter(b []byte, from, end int) bool {
	if end-from > scanWindow {
		end = from + scanWindow
	}
	attempts := 0
	for off := from + 1; off+frameHeaderSize < end; off++ {
		n := int(binary.LittleEndian.Uint32(b[off : off+4]))
		if n == 0 || n > maxRecordSize || off+frameHeaderSize+n > len(b) {
			continue
		}
		if b[off+frameHeaderSize] != kindCommit {
			continue
		}
		attempts++
		if attempts > scanMaxAttempts {
			return false
		}
		batchOff := binary.LittleEndian.Uint32(b[off+8 : off+12])
		payload, _, class := nextFrame(b, off)
		if class != frameOK || int64(off)-int64(batchOff) <= int64(from) {
			continue
		}
		if _, err := decodeRecordPayload(payload); err == nil {
			return true
		}
	}
	return false
}

// Replay recovers the log: snapshot entries, then tail records, in
// order. It must be called exactly once, before any Append; it arms the
// append path, creating the first segment if the directory is fresh and
// zeroing a torn tail so the next batch lands in a clean fill.
func (l *Log) Replay(h ReplayHandler) (ReplayInfo, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ReplayInfo{}, ErrClosed
	}
	if l.replayed {
		l.mu.Unlock()
		return ReplayInfo{}, fmt.Errorf("wal: Replay called twice")
	}
	l.mu.Unlock()

	var info ReplayInfo
	if l.snap != "" {
		path := filepath.Join(l.dir, l.snap)
		b, err := os.ReadFile(path)
		if err == nil {
			info.Counter, info.SnapshotEntries, err = ReadSnapshot(b, l.firstSeg, h)
			l.snapCtr = info.Counter
		}
		var cse *CorruptSnapshotError
		if errors.As(err, &cse) {
			cse.Path = path
		}
		if err != nil {
			return info, err
		}
	}

	var end int64 // first byte after the last segment's readable frames
	for i, seq := range l.segs {
		last := i == len(l.segs)-1
		var err error
		end, info.TornBytes, err = l.replaySegment(seq, last, h, &info)
		if err != nil {
			return info, err
		}
		info.Segments++
	}

	if err := l.openActive(end, info.TornBytes); err != nil {
		return info, err
	}
	l.mu.Lock()
	l.replayed = true
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return info, ErrClosed
	}
	go l.flusher()
	return info, nil
}

// replaySegment scans one segment and returns where its readable frames
// end. Only the last segment may have a torn tail; torn is its size in
// bytes (0 otherwise), starting at end. An end below fileHeaderSize
// means the segment's creation itself was torn.
func (l *Log) replaySegment(seq uint64, last bool, h ReplayHandler, info *ReplayInfo) (end, torn int64, err error) {
	path := filepath.Join(l.dir, segName(seq))
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	if len(b) < fileHeaderSize {
		if last {
			// Torn segment creation: the header write itself was cut
			// short. Nothing was ever appended here (appends require a
			// durable header), so recreating it loses nothing.
			return 0, int64(len(b)), nil
		}
		return 0, 0, &CorruptSegmentError{Path: path, Reason: "short header"}
	}
	if reason := checkFileHeader(b, segMagic, seq); reason != "" {
		return 0, 0, &CorruptSegmentError{Path: path, Reason: reason}
	}

	valid := fileHeaderSize
	for {
		payload, next, class := nextFrame(b, valid)
		if class == frameOK {
			rec, derr := decodeRecordPayload(payload)
			if derr == nil {
				if rec.Version.Counter > info.Counter {
					info.Counter = rec.Version.Counter
				}
				if h.Record != nil {
					if err := h.Record(rec); err != nil {
						return 0, 0, err
					}
				}
				info.Records++
				valid = next
				continue
			}
			class = frameBadBody
		}
		// End of the file, or an unreadable frame at `valid`.
		tail := bytes.TrimRight(b[valid:], "\x00")
		if len(tail) == 0 && (last || class == frameEOF) {
			return int64(valid), 0, nil // clean end, zero fill (if any) and all
		}
		tornEnd := valid + len(tail)
		if !last || laterBatchAfter(b, valid, tornEnd) {
			return 0, 0, &CorruptSegmentError{Path: path, Offset: int64(valid), Reason: classReason(class)}
		}
		return int64(valid), int64(len(tail)), nil
	}
}

func classReason(c frameErrClass) string {
	switch c {
	case frameShort:
		return "incomplete frame"
	case frameBadLen:
		return "frame length exceeds bound"
	case frameBadCRC:
		return "checksum mismatch"
	case frameBadBody:
		return "undecodable record payload"
	}
	return "unreadable frame"
}

// openActive opens the highest segment for positioned writes at end,
// first zeroing the torn bytes there — a batch must only ever land in
// zeros, or a leftover of the torn one could parse as a frame behind a
// shorter successor. The segment keeps whatever zero fill it has. A
// fresh log, or a final segment torn during creation (end below the
// header), gets a newly created segment instead.
func (l *Log) openActive(end, torn int64) error {
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	l.seq = l.firstSeg
	if len(l.segs) > 0 {
		l.seq = l.segs[len(l.segs)-1]
	}
	path := filepath.Join(l.dir, segName(l.seq))
	if end < fileHeaderSize {
		if len(l.segs) > 0 {
			if err := os.Remove(path); err != nil {
				return err
			}
		}
		f, err := createSegment(l.dir, l.seq)
		if err != nil {
			return err
		}
		l.f, l.size, l.alloc = f, fileHeaderSize, fileHeaderSize
	} else {
		f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		st, err := f.Stat()
		if err == nil && torn > 0 {
			if err = writeZeros(f, end, torn); err == nil {
				err = f.Sync()
			}
		}
		if err != nil {
			f.Close()
			return err
		}
		l.f, l.size, l.alloc = f, end, st.Size()
	}
	l.flushed = Pos{Seq: l.seq, Off: l.size}
	return nil
}
