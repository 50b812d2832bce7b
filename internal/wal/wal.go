// Package wal is the durable storage engine under the database tier: a
// segmented write-ahead log with group commit plus a snapshot/checkpoint
// layer. A log directory holds
//
//	LOCK                      flock'ed by the one process that has the log open
//	MANIFEST                  root pointer: first live segment + snapshot
//	snap-%016d.snap           newest durable checkpoint (at most one)
//	seg-%016d.wal             live segments, contiguous sequence numbers
//
// Appends go to the highest segment; segments rotate at a size
// threshold. Concurrent committers coalesce: each appends its encoded
// record to the open batch and waits, while a dedicated flusher writes
// whole batches with one positioned write into the segment's zero fill
// and (when Options.Sync) one fsync — so Sync durability costs one
// fsync per batch, not per transaction, and that fsync has no new file
// size to commit through the filesystem journal. A snapshot covers
// every segment below its cut sequence; committing a snapshot advances
// the manifest and deletes the covered segments. Recovery (Replay)
// loads the snapshot, replays the tail segments tolerating a torn final
// batch, and surfaces corruption of committed history as named errors
// instead of silently truncating it.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tcache/internal/telemetry"
)

// Errors returned by the log.
var (
	// ErrCorrupt is the base class of all corruption errors; the concrete
	// CorruptSegmentError / CorruptSnapshotError / CorruptManifestError
	// unwrap to it.
	ErrCorrupt = errors.New("wal: corrupt log")
	// ErrClosed is returned by operations on a closed (or not yet
	// replayed) log.
	ErrClosed = errors.New("wal: closed")
	// ErrRecordTooLarge is returned by Append when one record exceeds the
	// 64 MiB frame bound.
	ErrRecordTooLarge = errors.New("wal: record exceeds maximum size")
	// ErrLocked is returned by Open while another Log, in any process,
	// holds the directory: two writers would overwrite each other's commits.
	ErrLocked = errors.New("wal: log directory is locked by another process")
	// ErrWriteFailed wraps the first write or fsync error; the log
	// fail-stops after it (every later Append returns it) because a
	// failed fsync leaves the kernel page cache unreliable.
	ErrWriteFailed = errors.New("wal: write failed; log is fail-stopped")
	// ErrMissingManifest means the directory has segment or snapshot
	// files but no MANIFEST — refusing to guess protects committed
	// history from being half-read.
	ErrMissingManifest = errors.New("wal: log files present but MANIFEST missing")
	// ErrSnapshotInProgress is returned by BeginSnapshot while another
	// snapshot is being written.
	ErrSnapshotInProgress = errors.New("wal: snapshot already in progress")
	// ErrTailerLagged is returned by a Tailer whose next segment was
	// deleted by snapshot truncation before it was read. The tailer can
	// no longer produce a contiguous record stream; the caller must
	// restart from a full state transfer.
	ErrTailerLagged = errors.New("wal: tailer lagged behind snapshot truncation")
)

// Pos addresses a byte boundary in the log: a segment sequence number
// and an offset within that segment. Every appended record has an end
// Pos — the first byte after its frame — and replication uses these as
// resume/acknowledge cursors: "I hold everything before P".
type Pos struct {
	Seq uint64
	Off int64
}

// Less orders positions by log order.
func (p Pos) Less(q Pos) bool {
	if p.Seq != q.Seq {
		return p.Seq < q.Seq
	}
	return p.Off < q.Off
}

// IsZero reports whether p is the zero position (before any segment).
func (p Pos) IsZero() bool { return p.Seq == 0 && p.Off == 0 }

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Seq, p.Off) }

// CorruptSegmentError quarantines a segment whose committed history
// cannot be read back: recovery refuses to proceed (and never truncates
// the file) so the operator can inspect or restore it. Only the final
// segment's trailing bytes may legitimately be torn; see Replay.
type CorruptSegmentError struct {
	Path   string // segment file
	Offset int64  // byte offset of the first unreadable frame
	Reason string
}

func (e *CorruptSegmentError) Error() string {
	return fmt.Sprintf("wal: corrupt segment %s at offset %d: %s", e.Path, e.Offset, e.Reason)
}

func (e *CorruptSegmentError) Unwrap() error { return ErrCorrupt }

// CorruptSnapshotError reports an unreadable snapshot image. Snapshots
// are fully fsynced before the manifest references them, so no part of
// one may be torn.
type CorruptSnapshotError struct {
	Path   string // the file, or "" for an image received over the wire
	Reason string
}

func (e *CorruptSnapshotError) Error() string {
	return strings.TrimSuffix("wal: corrupt snapshot "+e.Path, " ") + ": " + e.Reason
}

func (e *CorruptSnapshotError) Unwrap() error { return ErrCorrupt }

// CorruptManifestError reports an unreadable MANIFEST.
type CorruptManifestError struct {
	Path   string
	Reason string
}

func (e *CorruptManifestError) Error() string {
	return fmt.Sprintf("wal: corrupt manifest %s: %s", e.Path, e.Reason)
}

func (e *CorruptManifestError) Unwrap() error { return ErrCorrupt }

// Options configures a log.
type Options struct {
	// Sync makes Append fsync (by group) before acknowledging, so
	// acknowledged commits survive power loss, not just process crashes.
	Sync bool
	// SegmentSize is the rotation threshold in bytes (records never
	// split across segments, so a segment may exceed it by one record).
	// 0 means the 64 MiB default.
	SegmentSize int64
	// BatchHist, when non-nil, observes the latency (ns) of each group-
	// commit batch write (buffer write + fsync + rotation). FsyncHist
	// observes the fsync alone. Nil histograms record nothing.
	BatchHist *telemetry.Histogram
	FsyncHist *telemetry.Histogram
}

const (
	defaultSegmentSize = 64 << 20
	lockName           = "LOCK"
)

func (o Options) withDefaults() Options {
	if o.SegmentSize <= 0 {
		o.SegmentSize = defaultSegmentSize
	}
	if o.SegmentSize < fileHeaderSize+frameHeaderSize {
		o.SegmentSize = fileHeaderSize + frameHeaderSize
	}
	return o
}

// Metrics are the log's monotonic counters, readable while appending.
// Fsyncs < Records under concurrent Sync appends is group commit
// working: batches share fsyncs.
type Metrics struct {
	Records   uint64 // commit records appended
	Batches   uint64 // group-commit batches flushed
	Fsyncs    uint64 // fsyncs issued for batches
	Bytes     uint64 // record bytes written (including frame headers)
	Rotations uint64 // segment rotations
	Extends   uint64 // zero-fill extensions of the active segment
}

// batch is one group-commit unit: the concatenated frames of every
// record appended while the previous batch was being flushed, each
// stamped with its offset in buf (record.go). seq and
// base are stamped by writeBatch (under fileMu, before the write) so
// each appender can compute its record's end position after done; the
// channel close publishes them.
type batch struct {
	buf  []byte
	n    int
	err  error
	done chan struct{}
	seq  uint64 // segment that received the batch
	base int64  // byte offset of the batch within that segment
}

func newBatch() *batch { return &batch{done: make(chan struct{})} }

// Log is a segmented write-ahead log. Open it, Replay it exactly once
// (which arms Append), then append concurrently from any number of
// goroutines.
type Log struct {
	dir  string
	opts Options

	// mu guards the open batch and lifecycle flags. Append holds it only
	// long enough to extend the batch; it is never held across I/O.
	mu       sync.Mutex
	cur      *batch
	werr     error // sticky first write/fsync error
	closed   bool
	replayed bool

	kick        chan struct{}
	quit        chan struct{}
	flusherDone chan struct{}
	closeOnce   sync.Once
	closeErr    error

	// fileMu guards the active segment file and the directory state
	// (first segment, snapshot name). Lock order: fileMu before mu —
	// writeBatch and rotation report sticky errors while holding fileMu.
	// The file holds frames in [fileHeaderSize, size) and zeros in
	// [size, alloc); alloc is its length.
	fileMu   sync.Mutex
	lock     *os.File // LOCK, flock'ed from Open to Close
	f        *os.File
	size     int64
	alloc    int64
	seq      uint64 // active (highest) segment sequence
	firstSeg uint64 // lowest live segment sequence (manifest)
	snap     string // snapshot file name ("" = none)
	snapCtr  uint64 // the snapshot's version counter (set by Replay, Commit)
	snapping bool

	// flushed is the durable end of the log (for Sync logs, post-fsync):
	// every byte before it is on disk as whole frames. flushCh is closed
	// and replaced whenever flushed advances (or the log closes), waking
	// tailers. Both are guarded by fileMu.
	flushed Pos
	flushCh chan struct{}

	records   atomic.Uint64
	batches   atomic.Uint64
	fsyncs    atomic.Uint64
	bytes     atomic.Uint64
	rotations atomic.Uint64
	extends   atomic.Uint64

	// segs holds the segment sequences discovered at Open, consumed by
	// Replay.
	segs []uint64
}

// Open opens (or creates) the log directory. The returned log cannot
// append until Replay has run: recovery is not optional, because only
// replay knows where the durable tail ends.
//
// Open removes crash leftovers — temp files, segments below the
// manifest's first sequence, snapshots the manifest does not name —
// which is how every crash window of the snapshot protocol converges
// back to a consistent directory. It holds the directory's LOCK until
// Close, and fails with ErrLocked while another Log does.
func Open(dir string, opts Options) (_ *Log, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// The kernel drops the flock when the descriptor closes, so a killed
	// process never leaves the directory locked.
	lock, err := os.OpenFile(filepath.Join(dir, lockName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			lock.Close()
		}
	}()
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("%w: %s", ErrLocked, dir)
		}
		return nil, fmt.Errorf("wal: flock %s: %w", dir, err)
	}
	l := &Log{
		dir:         dir,
		lock:        lock,
		opts:        opts.withDefaults(),
		cur:         newBatch(),
		kick:        make(chan struct{}, 1),
		quit:        make(chan struct{}),
		flusherDone: make(chan struct{}),
		flushCh:     make(chan struct{}),
	}

	m, found, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if !found {
		// A fresh directory must be empty of log files: segments without
		// a manifest would otherwise be silently abandoned.
		segs, err := listSegments(dir)
		if err != nil {
			return nil, err
		}
		if len(segs) > 0 {
			return nil, fmt.Errorf("%w: %s", ErrMissingManifest, dir)
		}
		m = manifest{FirstSeg: 1}
		if err := writeManifest(dir, m); err != nil {
			return nil, err
		}
	}
	l.firstSeg = m.FirstSeg
	l.snap = m.Snapshot

	if err := l.cleanOrphans(); err != nil {
		return nil, err
	}

	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	// Live segments must be a contiguous run starting at firstSeg; a
	// missing middle segment is unrecoverable committed history.
	for i, seq := range segs {
		if want := l.firstSeg + uint64(i); seq != want {
			return nil, &CorruptSegmentError{
				Path:   filepath.Join(dir, segName(want)),
				Reason: "segment missing from contiguous live run",
			}
		}
	}
	l.segs = segs
	return l, nil
}

// cleanOrphans removes files a crash may have left behind: temp files,
// segments below the manifest's first live sequence, and snapshot files
// the manifest does not reference.
func (l *Log) cleanOrphans() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		drop := false
		switch {
		case strings.HasSuffix(name, ".tmp"):
			drop = true
		case name == manifestName:
		default:
			if seq, ok := parseSegName(name); ok {
				drop = seq < l.firstSeg
			} else if _, ok := parseSnapName(name); ok {
				drop = name != l.snap
			}
		}
		if drop {
			if err := os.Remove(filepath.Join(l.dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Health returns the log's sticky fail-stop error, or nil while the
// log can still append. Once non-nil (a write or fsync failed), every
// future Append fails with it — surfacing it lets operators fail a
// dying primary over before the next commit discovers the fault.
func (l *Log) Health() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.werr
}

// Metrics returns a snapshot of the log's counters.
func (l *Log) Metrics() Metrics {
	return Metrics{
		Records:   l.records.Load(),
		Batches:   l.batches.Load(),
		Fsyncs:    l.fsyncs.Load(),
		Bytes:     l.bytes.Load(),
		Rotations: l.rotations.Load(),
		Extends:   l.extends.Load(),
	}
}

// Append durably logs one commit record. Concurrent appends are group
// committed: each waits until the batch containing its record has been
// written (and fsynced, under Options.Sync). A nil error means the
// record is on disk and will be recovered by every future Replay; the
// returned Pos is the end of the record's frame — the cursor a replica
// holding this record (and everything before it) acknowledges.
func (l *Log) Append(rec Record) (Pos, error) {
	return l.AppendBatch([]Record{rec})
}

// AppendBatch durably logs several commit records as one unit, sharing
// a single group-commit wait (and, under Options.Sync, at most one
// fsync). It returns the end position of the last record. Replicas use
// it to apply a received frame batch with one durability round trip.
func (l *Log) AppendBatch(recs []Record) (Pos, error) {
	if len(recs) == 0 {
		return Pos{}, nil
	}
	frames := getBuf()
	defer putBuf(frames)
	for i := range recs {
		var err error
		if *frames, err = appendRecordFrame(*frames, &recs[i]); err != nil {
			return Pos{}, err
		}
	}

	l.mu.Lock()
	if !l.replayed || l.closed {
		l.mu.Unlock()
		return Pos{}, ErrClosed
	}
	if l.werr != nil {
		err := l.werr
		l.mu.Unlock()
		return Pos{}, err
	}
	b := l.cur
	start := len(b.buf)
	b.buf = append(b.buf, *frames...)
	closeFrames(b.buf, start)
	end := len(b.buf)
	b.n += len(recs)
	l.mu.Unlock()

	select {
	case l.kick <- struct{}{}:
	default:
	}
	<-b.done
	if b.err != nil {
		return Pos{}, b.err
	}
	return Pos{Seq: b.seq, Off: b.base + int64(end)}, nil
}

// flusher is the dedicated group-commit goroutine: it swaps the open
// batch out and writes it with one write + one fsync, so every record
// appended while the previous flush was in flight shares the next
// fsync.
func (l *Log) flusher() {
	defer close(l.flusherDone)
	for {
		select {
		case <-l.kick:
		case <-l.quit:
		}
		for {
			l.mu.Lock()
			b := l.cur
			if b.n == 0 {
				l.mu.Unlock()
				break
			}
			l.cur = newBatch()
			werr := l.werr
			l.mu.Unlock()
			if werr != nil {
				b.err = werr
			} else {
				b.err = l.writeBatch(b)
			}
			close(b.done)
		}
		select {
		case <-l.quit:
			// Close sets closed before closing quit, so no new record can
			// arrive after this drain pass saw an empty batch.
			return
		default:
		}
	}
}

// writeBatch writes one batch into the active segment's zero fill,
// extending the fill first when the batch would run past it. A write or
// fsync failure fails the batch (its commits are not durable) and
// fail-stops the log. A post-write rotation failure does NOT fail the
// batch — its records are already durable, and failing an
// acknowledged-durable commit would let an "aborted" transaction
// resurrect at recovery — it only fail-stops future appends.
func (l *Log) writeBatch(b *batch) error {
	start := time.Now() // cheap next to the write+fsync it measures
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	b.seq = l.seq
	b.base = l.size
	end := l.size + int64(len(b.buf))
	if end > l.alloc {
		if err := l.extendLocked(end); err != nil {
			return l.fail(err)
		}
	}
	if _, err := l.f.WriteAt(b.buf, l.size); err != nil {
		return l.fail(err)
	}
	l.size = end
	if l.opts.Sync {
		syncStart := time.Now()
		if err := l.f.Sync(); err != nil {
			return l.fail(err)
		}
		l.opts.FsyncHist.ObserveSince(syncStart)
		l.fsyncs.Add(1)
	}
	l.records.Add(uint64(b.n))
	l.batches.Add(1)
	l.bytes.Add(uint64(len(b.buf)))
	if l.size >= l.opts.SegmentSize {
		if err := l.rotateLocked(); err != nil {
			_ = l.fail(err)
		}
	}
	l.advanceFlushedLocked()
	l.opts.BatchHist.ObserveSince(start)
	return nil
}

// extendLocked grows the active segment's zero fill to cover at least
// need bytes and, under Options.Sync, makes the new length durable, so
// that the batch fsyncs that follow write into allocated blocks and
// find no metadata to journal. A step doubles the file: by at least
// minExtend (a log that only sees set-up traffic pays for one small
// step), by at most maxExtend (every queued commit waits for the step
// to reach the disk), and never past the rotation threshold except as
// far as the batch in hand reaches. Caller holds fileMu.
func (l *Log) extendLocked(need int64) error {
	const minExtend, maxExtend = 64 << 10, 4 << 20
	step := min(max(l.alloc, minExtend), maxExtend)
	target := max(min(l.alloc+step, l.opts.SegmentSize), need)
	if err := writeZeros(l.f, l.alloc, target-l.alloc); err != nil {
		return err
	}
	if l.opts.Sync {
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	l.alloc = target
	l.extends.Add(1)
	return nil
}

// advanceFlushedLocked publishes the durable boundary and wakes every
// tailer waiting for more bytes. Caller holds fileMu.
func (l *Log) advanceFlushedLocked() {
	l.flushed = Pos{Seq: l.seq, Off: l.size}
	close(l.flushCh)
	l.flushCh = make(chan struct{})
}

// SegmentCount returns the number of live segments (the manifest's
// first through the active one) — the wal_segments gauge; a count that
// only grows means snapshots have stopped truncating the log.
func (l *Log) SegmentCount() int {
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	if l.seq < l.firstSeg {
		return 0
	}
	return int(l.seq - l.firstSeg + 1)
}

// flushedBoundary returns the durable boundary, the channel closed on
// its next advance, and the first live segment (for lag detection).
func (l *Log) flushedBoundary() (Pos, <-chan struct{}, uint64) {
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	return l.flushed, l.flushCh, l.firstSeg
}

// fail records the first write error; the log fail-stops. Called with
// fileMu held (lock order fileMu < mu).
func (l *Log) fail(err error) error {
	wrapped := fmt.Errorf("%w: %v", ErrWriteFailed, err)
	l.mu.Lock()
	if l.werr == nil {
		l.werr = wrapped
	} else {
		wrapped = l.werr
	}
	l.mu.Unlock()
	return wrapped
}

// sealLocked cuts the zero fill off the active segment, makes it
// durable (even when Options.Sync is off) and closes it: a sealed
// segment is exactly its header and frames, which is what lets replay
// demand every byte of one and a tailer read one to EOF. The handle is
// gone either way. Caller holds fileMu.
func (l *Log) sealLocked() error {
	err := l.f.Truncate(l.size)
	if err == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// rotateLocked seals the active segment and opens the next one. Caller
// holds fileMu.
func (l *Log) rotateLocked() error {
	if err := l.sealLocked(); err != nil {
		return err
	}
	f, err := createSegment(l.dir, l.seq+1)
	if err != nil {
		return err
	}
	l.f = f
	l.seq++
	l.size, l.alloc = fileHeaderSize, fileHeaderSize
	l.rotations.Add(1)
	return nil
}

// Rotate seals the active segment and starts a new one, returning the
// new active sequence number — the snapshot cut: a snapshot taken now
// covers every segment below it. A rotation failure fail-stops the log.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	if !l.replayed || l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	if l.werr != nil {
		err := l.werr
		l.mu.Unlock()
		return 0, err
	}
	l.mu.Unlock()

	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	if err := l.rotateLocked(); err != nil {
		return 0, l.fail(err)
	}
	l.advanceFlushedLocked()
	return l.seq, nil
}

// Close drains in-flight batches, seals the active segment, and shuts
// the log down. The error is real: a failed final flush — or a log that
// fail-stopped earlier — means recently acknowledged state may not all
// be durable, and callers must surface it rather than swallow it.
func (l *Log) Close() error {
	l.closeOnce.Do(func() {
		l.mu.Lock()
		l.closed = true
		started := l.replayed
		l.mu.Unlock()
		if started {
			close(l.quit)
			<-l.flusherDone
		}
		l.fileMu.Lock()
		defer l.fileMu.Unlock()
		if l.f != nil {
			l.closeErr = l.sealLocked()
		}
		if l.closeErr == nil {
			l.mu.Lock()
			l.closeErr = l.werr
			l.mu.Unlock()
		}
		l.lock.Close() // drops the flock
		// Wake tailers so they observe the closed log instead of waiting
		// for a flush that will never come.
		close(l.flushCh)
		l.flushCh = make(chan struct{})
	})
	return l.closeErr
}
