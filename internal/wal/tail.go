package wal

// Live log tailing for replication. A Tailer reads committed records in
// log order starting from a Pos, following the active segment as the
// flusher extends it and crossing rotations into new segments. It only
// ever reads below the published durable boundary, so every byte it
// sees is a whole, flushed frame — under the invariant that batches
// never straddle segments, any unreadable frame below the boundary is
// corruption, not a torn write.
//
// A tailer can lag: if a snapshot commits while the tailer still has to
// open a segment below the new cut, that segment is deleted and the
// stream can no longer be contiguous. Next returns ErrTailerLagged and
// the caller must restart from a full state transfer. A tailer that has
// its segment open reads it to the end.

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// tailChunk bounds one read, so tailing a large sealed segment streams
// in pieces instead of buffering the whole file. Frames larger than one
// chunk accumulate across fills.
const tailChunk = 1 << 20

// Tailer streams records from a fixed position toward the live end of
// the log. Not safe for concurrent use.
type Tailer struct {
	l    *Log
	pos  Pos // next unread byte
	f    *os.File
	fseq uint64
	buf  []byte // bytes of segment pos.Seq; buf[r:] is unconsumed and starts at pos.Off
	r    int
}

// Tail starts a tailer at from. A zero position means "from the oldest
// live segment". The offset is clamped to the first frame boundary;
// callers resume at a Pos previously returned by Append or Next.
func (l *Log) Tail(from Pos) *Tailer {
	if from.Off < fileHeaderSize {
		from.Off = fileHeaderSize
	}
	return &Tailer{l: l, pos: from}
}

// Pos returns the tailer's cursor: the position after the last record
// returned by Next (or the starting position before the first).
func (t *Tailer) Pos() Pos { return t.pos }

// Resumable reports whether a tailer starting at from would still find
// its first segment on disk. A position below the first live segment
// was truncated by a snapshot; resuming there is impossible and the
// caller needs a full state transfer instead. Advisory: a snapshot can
// commit between this check and the first Next, which then returns
// ErrTailerLagged.
func (l *Log) Resumable(from Pos) bool {
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	return from.Seq == 0 || from.Seq >= l.firstSeg
}

// Next returns the next committed record and the position after it —
// the cursor to acknowledge and to resume from. It blocks until a
// record is durable, the context is canceled, the log closes
// (ErrClosed), or the tailer lags a snapshot truncation
// (ErrTailerLagged).
func (t *Tailer) Next(ctx context.Context) (Record, Pos, error) {
	for {
		if t.r < len(t.buf) {
			payload, next, class := nextFrame(t.buf, t.r)
			switch class {
			case frameOK:
				rec, err := decodeRecordPayload(payload)
				if err != nil {
					return Record{}, Pos{}, t.corrupt("undecodable record payload")
				}
				t.pos.Off += int64(next - t.r)
				t.r = next
				return rec, t.pos, nil
			case frameShort:
				// Need more bytes; fall through to fill.
			default:
				return Record{}, Pos{}, t.corrupt(classReason(class))
			}
		}

		boundary, ch, firstSeg := t.l.flushedBoundary()
		if t.pos.Seq == 0 {
			t.pos = Pos{Seq: firstSeg, Off: fileHeaderSize}
		}
		sealed := t.pos.Seq < boundary.Seq
		if t.pos.Seq <= boundary.Seq {
			limit := int64(-1) // sealed: read to EOF
			if !sealed {
				limit = boundary.Off
			}
			n, err := t.fill(limit)
			if err != nil {
				return Record{}, Pos{}, err
			}
			if n > 0 {
				continue
			}
			if sealed {
				if t.r < len(t.buf) {
					// Sealed segments end on a frame boundary; leftover
					// bytes mean the file was damaged under us.
					return Record{}, Pos{}, t.corrupt("torn frame in sealed segment")
				}
				t.closeFile()
				t.pos = Pos{Seq: t.pos.Seq + 1, Off: fileHeaderSize}
				continue
			}
		}
		// Caught up with the durable boundary (or resumed ahead of it):
		// wait for the next flush.
		if t.l.isClosed() {
			return Record{}, Pos{}, ErrClosed
		}
		select {
		case <-ctx.Done():
			return Record{}, Pos{}, ctx.Err()
		case <-ch:
		}
	}
}

// fill reads up to tailChunk more bytes of the current segment into the
// buffer's spare capacity (records are decoded by copy, so consumed
// bytes are reused): to limit, or to EOF when limit < 0 (sealed). It
// returns the number of bytes added.
func (t *Tailer) fill(limit int64) (int, error) {
	if t.f == nil || t.fseq != t.pos.Seq {
		t.closeFile()
		f, err := os.Open(filepath.Join(t.l.dir, segName(t.pos.Seq)))
		if err != nil {
			if os.IsNotExist(err) {
				// Re-check under the lock: deleted by a snapshot commit?
				if _, _, firstSeg := t.l.flushedBoundary(); t.pos.Seq < firstSeg {
					return 0, ErrTailerLagged
				}
			}
			return 0, err
		}
		t.f = f
		t.fseq = t.pos.Seq
	}
	if limit < 0 {
		st, err := t.f.Stat()
		if err != nil {
			return 0, err
		}
		limit = st.Size()
	}
	t.buf = t.buf[:copy(t.buf, t.buf[t.r:])]
	t.r = 0
	start := t.pos.Off + int64(len(t.buf))
	want := limit - start
	if want <= 0 {
		return 0, nil
	}
	if want > tailChunk {
		want = tailChunk
	}
	t.buf = slices.Grow(t.buf, int(want))
	n, err := t.f.ReadAt(t.buf[len(t.buf):len(t.buf)+int(want)], start)
	t.buf = t.buf[:len(t.buf)+n]
	if err != nil && err != io.EOF {
		return n, err
	}
	return n, nil
}

func (t *Tailer) corrupt(reason string) error {
	return &CorruptSegmentError{
		Path:   filepath.Join(t.l.dir, segName(t.pos.Seq)),
		Offset: t.pos.Off,
		Reason: reason,
	}
}

func (t *Tailer) closeFile() {
	if t.f != nil {
		t.f.Close()
		t.f = nil
	}
	t.buf, t.r = nil, 0
}

// Close releases the tailer's file handle. The tailer must not be used
// afterwards.
func (t *Tailer) Close() { t.closeFile() }

// isClosed reports whether the log has been closed.
func (l *Log) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}
