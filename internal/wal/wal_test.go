package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"tcache/internal/kv"
)

func v(c uint64) kv.Version { return kv.Version{Counter: c} }

func rec(ver uint64, keys ...kv.Key) Record {
	r := Record{Version: v(ver)}
	for _, k := range keys {
		r.Writes = append(r.Writes, Entry{
			Key:   k,
			Value: kv.Value("val-" + k),
			Deps:  kv.DepList{kv.Dep("dep", v(ver-1))},
		})
	}
	return r
}

// openLog opens and replays a log, failing the test on any error.
func openLog(t *testing.T, dir string, opts Options) (*Log, ReplayInfo) {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	info, err := l.Replay(ReplayHandler{})
	if err != nil {
		t.Fatal(err)
	}
	return l, info
}

// replayAll reopens dir and collects every recovered record and
// snapshot entry.
func replayAll(t *testing.T, dir string, opts Options) ([]SnapshotEntry, []Record, ReplayInfo) {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var snaps []SnapshotEntry
	var recs []Record
	info, err := l.Replay(ReplayHandler{
		Snapshot: func(e SnapshotEntry) error { snaps = append(snaps, e); return nil },
		Record:   func(r Record) error { recs = append(recs, r); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return snaps, recs, info
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, Options{})
	for i := uint64(1); i <= 10; i++ {
		if _, err := l.Append(rec(i, "a", "b")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, got, info := replayAll(t, dir, Options{})
	if len(got) != 10 {
		t.Fatalf("replayed %d records, want 10", len(got))
	}
	if info.Counter != 10 {
		t.Fatalf("recovered counter %d, want 10", info.Counter)
	}
	for i, r := range got {
		if r.Version != v(uint64(i+1)) {
			t.Fatalf("record %d version = %v", i, r.Version)
		}
		if len(r.Writes) != 2 || string(r.Writes[0].Value) != "val-a" {
			t.Fatalf("record %d writes = %+v", i, r.Writes)
		}
		if len(r.Writes[0].Deps) != 1 || r.Writes[0].Deps[0].Key.Value() != "dep" {
			t.Fatalf("record %d deps lost: %+v", i, r.Writes[0].Deps)
		}
	}
}

// TestFramePayloadStrictness covers what the WAL adds around the shared
// codec (whose own round-trip, truncation and hostile-count tests live
// in internal/codec): the kind byte must match the frame's role, and —
// the CRC having matched — trailing bytes mean an encoder/decoder
// mismatch, not a torn write.
func TestFramePayloadStrictness(t *testing.T) {
	r := rec(1, "k")
	payload := appendRecordPayload(nil, &r)
	if got, err := decodeRecordPayload(payload); err != nil || got.Version != r.Version || len(got.Writes) != len(r.Writes) {
		t.Fatalf("decodeRecordPayload = %+v, %v", got, err)
	}
	if _, err := decodeRecordPayload(append(payload[:len(payload):len(payload)], 0)); err == nil {
		t.Fatal("commit payload with a trailing byte accepted")
	}
	if _, err := decodeSnapshotEntry(payload); err == nil {
		t.Fatal("commit payload accepted as a snapshot entry")
	}
	e := SnapshotEntry{Key: "k", Value: kv.Value("v"), Version: v(42)}
	entry := appendSnapshotEntry(nil, &e)
	if got, err := decodeSnapshotEntry(entry); err != nil || got.Key != e.Key || got.Version != e.Version {
		t.Fatalf("decodeSnapshotEntry = %+v, %v", got, err)
	}
	if _, err := decodeRecordPayload(entry); err == nil {
		t.Fatal("snapshot entry accepted as a commit record")
	}
	if _, err := decodeRecordPayload(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
}

func TestFreshDirIsEmpty(t *testing.T) {
	_, recs, info := replayAll(t, t.TempDir(), Options{})
	if len(recs) != 0 || info.Counter != 0 {
		t.Fatalf("fresh dir replayed %d records, counter %d", len(recs), info.Counter)
	}
}

func TestAppendAfterReopen(t *testing.T) {
	dir := t.TempDir()
	for i := uint64(1); i <= 3; i++ {
		l, _ := openLog(t, dir, Options{})
		if _, err := l.Append(rec(i, "k")); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	_, recs, _ := replayAll(t, dir, Options{})
	if len(recs) != 3 {
		t.Fatalf("replayed %d, want 3", len(recs))
	}
}

func TestAppendBeforeReplayRefused(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(rec(1, "k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append before replay: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayTwiceRefused(t *testing.T) {
	l, _ := openLog(t, t.TempDir(), Options{})
	defer l.Close()
	if _, err := l.Replay(ReplayHandler{}); err == nil {
		t.Fatal("second Replay succeeded")
	}
}

func TestAppendAfterCloseRefused(t *testing.T) {
	l, _ := openLog(t, t.TempDir(), Options{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(rec(1, "k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err) // double close is idempotent
	}
}

// crashCopy copies a live log directory the way a crash would leave it:
// every segment at its on-disk length, zero fill included.
func crashCopy(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestSyncModeDurableWithoutClose(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, Options{Sync: true})
	end, err := l.Append(rec(1, "k"))
	if err != nil {
		t.Fatal(err)
	}
	if m := l.Metrics(); m.Fsyncs != 1 || m.Records != 1 || m.Extends != 1 {
		t.Fatalf("metrics = %+v, want 1 record, 1 fsync, 1 extension", m)
	}
	// No Close: the directory as a crash would leave it must already
	// replay, and its zero fill is the clean end of the log, not a tear.
	live := fileSize(t, lastSegPath(t, dir))
	if live <= end.Off {
		t.Fatalf("active segment is %d bytes for frames ending at %d: not zero-filled ahead", live, end.Off)
	}
	crashed := crashCopy(t, dir)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, lastSegPath(t, dir)); got != end.Off {
		t.Fatalf("closed segment is %d bytes, want exactly its frames (%d)", got, end.Off)
	}

	l2, info := openLog(t, crashed, Options{Sync: true})
	if info.Records != 1 || info.TornBytes != 0 {
		t.Fatalf("crash copy replayed %d records with %d torn bytes, want 1 and 0", info.Records, info.TornBytes)
	}
	// The recovered segment keeps its fill: appending neither shrinks
	// the file nor extends it again.
	if _, err := l2.Append(rec(2, "k")); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, lastSegPath(t, crashed)); got != live || l2.Metrics().Extends != 0 {
		t.Fatalf("recovered segment went %d -> %d bytes with %d extensions; want the fill reused", live, got, l2.Metrics().Extends)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, recs, _ := replayAll(t, crashed, Options{}); len(recs) != 2 {
		t.Fatalf("replayed %d records after appending to the crash copy, want 2", len(recs))
	}
}

func TestOpenLocksDirectory(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, Options{})
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open of a held directory: %v, want ErrLocked", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	// A failed Open must not keep the lock either.
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open %d of a corrupt manifest: %v, want ErrCorrupt", i, err)
		}
	}
}

func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, Options{Sync: true})
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			for i := 0; i < 50; i++ {
				if _, err := l.Append(rec(uint64(g*100+i+1), "k")); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, _ := replayAll(t, dir, Options{})
	if len(recs) != 200 {
		t.Fatalf("replayed %d, want 200 (interleaved appends corrupted framing)", len(recs))
	}
}

func TestGroupCommitCoalesces(t *testing.T) {
	// Stall the flusher inside a one-record batch by holding the file
	// lock, queue 16 concurrent appends into the next open batch, then
	// release: the 16 must land in ONE batch with ONE fsync.
	dir := t.TempDir()
	l, _ := openLog(t, dir, Options{Sync: true})
	defer l.Close()
	base := l.Metrics()

	l.fileMu.Lock()
	l.mu.Lock()
	blocker := l.cur
	l.mu.Unlock()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := l.Append(rec(1, "k")); err != nil {
			t.Error(err)
		}
	}()
	// Wait for the flusher to swap the blocker batch out; it is now
	// stuck in writeBatch on fileMu, so the next batch stays open.
	for {
		l.mu.Lock()
		swapped := l.cur != blocker
		l.mu.Unlock()
		if swapped {
			break
		}
		runtime.Gosched()
	}

	const n = 16
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := l.Append(rec(uint64(i+2), "k")); err != nil {
				t.Error(err)
			}
		}()
	}
	// Wait until every append has joined the open batch.
	for {
		l.mu.Lock()
		queued := l.cur.n
		l.mu.Unlock()
		if queued == n {
			break
		}
		runtime.Gosched()
	}
	l.fileMu.Unlock()
	wg.Wait()

	m := l.Metrics()
	if got := m.Records - base.Records; got != n+1 {
		t.Fatalf("appended %d records, want %d", got, n+1)
	}
	// Batch 1: the blocker record. Batch 2: the 16 coalesced records.
	if batches := m.Batches - base.Batches; batches != 2 {
		t.Fatalf("flushed %d batches for 1+%d records, want 2", batches, n)
	}
	if fsyncs := m.Fsyncs - base.Fsyncs; fsyncs != 2 {
		t.Fatalf("%d fsyncs for 1+%d records, want 2", fsyncs, n)
	}
}

func TestRotationAndMultiSegmentReplay(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, Options{SegmentSize: 256})
	for i := uint64(1); i <= 40; i++ {
		if _, err := l.Append(rec(i, "k")); err != nil {
			t.Fatal(err)
		}
	}
	if m := l.Metrics(); m.Rotations == 0 {
		t.Fatal("no rotations at a 256-byte threshold")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("only %d segments", len(segs))
	}
	_, recs, info := replayAll(t, dir, Options{SegmentSize: 256})
	if len(recs) != 40 || info.Counter != 40 {
		t.Fatalf("replayed %d records, counter %d; want 40, 40", len(recs), info.Counter)
	}
	for i, r := range recs {
		if r.Version != v(uint64(i+1)) {
			t.Fatalf("record %d out of order: %v", i, r.Version)
		}
	}
}

func TestExplicitRotate(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, Options{})
	if _, err := l.Append(rec(1, "k")); err != nil {
		t.Fatal(err)
	}
	cut, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if cut != 2 {
		t.Fatalf("cut = %d, want 2", cut)
	}
	if _, err := l.Append(rec(2, "k")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, _ := replayAll(t, dir, Options{})
	if len(recs) != 2 {
		t.Fatalf("replayed %d, want 2", len(recs))
	}
}

// writeLog appends n single-key records and closes the log, returning
// the directory for corruption experiments.
func writeLog(t *testing.T, n uint64, opts Options) string {
	t.Helper()
	dir := t.TempDir()
	l, _ := openLog(t, dir, opts)
	for i := uint64(1); i <= n; i++ {
		if _, err := l.Append(rec(i, "k")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func lastSegPath(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v (%d segs)", err, len(segs))
	}
	return filepath.Join(dir, segName(segs[len(segs)-1]))
}

func TestTornTailTruncated(t *testing.T) {
	dir := writeLog(t, 5, Options{})
	path := lastSegPath(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	_, recs, info := replayAll(t, dir, Options{})
	if len(recs) != 4 {
		t.Fatalf("replayed %d records after torn tail, want 4", len(recs))
	}
	if info.TornBytes == 0 {
		t.Fatal("torn tail not reported")
	}
	// The tail was discarded: appending and replaying again must yield
	// the 4 survivors plus the new record, nothing else.
	l, _ := openLog(t, dir, Options{})
	if _, err := l.Append(rec(99, "k")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, _ = replayAll(t, dir, Options{})
	if len(recs) != 5 || recs[4].Version != v(99) {
		t.Fatalf("after append-over-torn-tail: %d records, last %v", len(recs), recs[len(recs)-1].Version)
	}
}

func TestMidLogCorruptionQuarantined(t *testing.T) {
	dir := writeLog(t, 5, Options{})
	path := lastSegPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the first record's payload: valid records follow,
	// so this must be reported as corruption, not absorbed as a torn tail.
	data[fileHeaderSize+frameHeaderSize+2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	_, err = l.Replay(ReplayHandler{})
	var cse *CorruptSegmentError
	if !errors.As(err, &cse) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want CorruptSegmentError", err)
	}
	// The named error identifies the damage, and the file is untouched.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data) {
		t.Fatal("replay modified a quarantined segment")
	}
}

func TestCorruptionInNonFinalSegmentQuarantined(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, Options{SegmentSize: 128})
	for i := uint64(1); i <= 20; i++ {
		if _, err := l.Append(rec(i, "k")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("need ≥ 2 segments, got %d", len(segs))
	}
	// Truncate the FIRST segment: a torn tail is only legal in the last.
	first := filepath.Join(dir, segName(segs[0]))
	fi, err := os.Stat(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(first, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	_, err = l2.Replay(ReplayHandler{})
	var cse *CorruptSegmentError
	if !errors.As(err, &cse) {
		t.Fatalf("err = %v, want CorruptSegmentError", err)
	}
	if cse.Path != first {
		t.Fatalf("quarantined %s, want %s", cse.Path, first)
	}
}

func TestMissingMiddleSegmentQuarantined(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, Options{SegmentSize: 128})
	for i := uint64(1); i <= 20; i++ {
		if _, err := l.Append(rec(i, "k")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need ≥ 3 segments, got %d", len(segs))
	}
	if err := os.Remove(filepath.Join(dir, segName(segs[1]))); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt (missing middle segment)", err)
	}
}

func TestSegmentsWithoutManifestRefused(t *testing.T) {
	dir := writeLog(t, 3, Options{})
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrMissingManifest) {
		t.Fatalf("err = %v, want ErrMissingManifest", err)
	}
}

func TestCorruptManifestRefused(t *testing.T) {
	dir := writeLog(t, 3, Options{})
	path := filepath.Join(dir, manifestName)
	if err := os.WriteFile(path, []byte("tcache-wal v1\nfirst-seg 1\n"), 0o644); err != nil {
		t.Fatal(err) // missing "ok" trailer: a torn manifest write
	}
	_, err := Open(dir, Options{})
	var cme *CorruptManifestError
	if !errors.As(err, &cme) {
		t.Fatalf("err = %v, want CorruptManifestError", err)
	}
}

func TestRecordTooLargeRefused(t *testing.T) {
	l, _ := openLog(t, t.TempDir(), Options{})
	defer l.Close()
	huge := Record{Version: v(1), Writes: []Entry{{Key: "k", Value: make(kv.Value, maxRecordSize+1)}}}
	if _, err := l.Append(huge); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("err = %v, want ErrRecordTooLarge", err)
	}
	// The log still works.
	if _, err := l.Append(rec(1, "k")); err != nil {
		t.Fatal(err)
	}
}

// --- Snapshot layer ----------------------------------------------------

// snapshotAt rotates and writes a snapshot of entries at the cut.
func snapshotAt(t *testing.T, l *Log, counter uint64, entries []SnapshotEntry) {
	t.Helper()
	cut, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	sw, err := l.BeginSnapshot(cut, counter)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := sw.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, Options{})
	for i := uint64(1); i <= 5; i++ {
		if _, err := l.Append(rec(i, "k")); err != nil {
			t.Fatal(err)
		}
	}
	snapshotAt(t, l, 5, []SnapshotEntry{
		{Key: "k", Value: kv.Value("val-k"), Version: v(5), Deps: kv.DepList{kv.Dep("dep", v(4))}},
	})
	// Tail records after the snapshot.
	for i := uint64(6); i <= 8; i++ {
		if _, err := l.Append(rec(i, "j")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, recs, info := replayAll(t, dir, Options{})
	if len(snaps) != 1 || snaps[0].Key != "k" || snaps[0].Version != v(5) {
		t.Fatalf("snapshot entries = %+v", snaps)
	}
	if len(snaps[0].Deps) != 1 || snaps[0].Deps[0].Key.Value() != "dep" {
		t.Fatalf("snapshot deps lost: %+v", snaps[0].Deps)
	}
	if len(recs) != 3 || recs[0].Version != v(6) {
		t.Fatalf("tail records = %d, first %v; want 3 from version 6", len(recs), recs[0].Version)
	}
	if info.Counter != 8 {
		t.Fatalf("counter %d, want 8", info.Counter)
	}
	// Covered segments are gone.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if segs[0] != 2 {
		t.Fatalf("first live segment %d, want 2 (pre-cut segment not truncated)", segs[0])
	}
}

func TestSnapshotCounterFloorsRecovery(t *testing.T) {
	// The version counter must be restored from snapshot meta even when
	// every entry carries a lower version and no tail records exist.
	dir := t.TempDir()
	l, _ := openLog(t, dir, Options{})
	if _, err := l.Append(rec(3, "k")); err != nil {
		t.Fatal(err)
	}
	snapshotAt(t, l, 17, []SnapshotEntry{{Key: "k", Value: kv.Value("x"), Version: v(3)}})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, info := replayAll(t, dir, Options{})
	if len(recs) != 0 {
		t.Fatalf("tail records = %d, want 0", len(recs))
	}
	if info.Counter != 17 {
		t.Fatalf("counter %d, want 17 (snapshot meta ignored)", info.Counter)
	}
}

func TestSecondSnapshotReplacesFirst(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, Options{})
	if _, err := l.Append(rec(1, "a")); err != nil {
		t.Fatal(err)
	}
	snapshotAt(t, l, 1, []SnapshotEntry{{Key: "a", Value: kv.Value("1"), Version: v(1)}})
	if _, err := l.Append(rec(2, "b")); err != nil {
		t.Fatal(err)
	}
	snapshotAt(t, l, 2, []SnapshotEntry{
		{Key: "a", Value: kv.Value("1"), Version: v(1)},
		{Key: "b", Value: kv.Value("2"), Version: v(2)},
	})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, recs, info := replayAll(t, dir, Options{})
	if len(snaps) != 2 || len(recs) != 0 || info.Counter != 2 {
		t.Fatalf("snaps %d, recs %d, counter %d; want 2, 0, 2", len(snaps), len(recs), info.Counter)
	}
	// Exactly one snapshot file remains.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, e := range entries {
		if _, ok := parseSnapName(e.Name()); ok {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d snapshot files, want 1", count)
	}
}

func TestSnapshotOneAtATime(t *testing.T) {
	l, _ := openLog(t, t.TempDir(), Options{})
	defer l.Close()
	if _, err := l.Append(rec(1, "k")); err != nil {
		t.Fatal(err)
	}
	cut, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	sw, err := l.BeginSnapshot(cut, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.BeginSnapshot(cut, 1); !errors.Is(err, ErrSnapshotInProgress) {
		t.Fatalf("second BeginSnapshot: %v, want ErrSnapshotInProgress", err)
	}
	sw.Abort()
	// After abort a new snapshot may start.
	sw2, err := l.BeginSnapshot(cut, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptSnapshotQuarantined(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, Options{})
	if _, err := l.Append(rec(1, "k")); err != nil {
		t.Fatal(err)
	}
	snapshotAt(t, l, 1, []SnapshotEntry{{Key: "k", Value: kv.Value("x"), Version: v(1)}})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Find and damage the snapshot.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snap string
	for _, e := range entries {
		if _, ok := parseSnapName(e.Name()); ok {
			snap = filepath.Join(dir, e.Name())
		}
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	_, err = l2.Replay(ReplayHandler{})
	var cse *CorruptSnapshotError
	if !errors.As(err, &cse) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want CorruptSnapshotError", err)
	}
}

// --- Crash-window states of the snapshot protocol ----------------------

// crashState builds a log with a committed snapshot and tail, then
// applies mutate to simulate a crash window, and asserts recovery still
// yields the full committed state (keys a=1, b=2, tail c=3).
func crashWindowLog(t *testing.T) (string, *Log) {
	t.Helper()
	dir := t.TempDir()
	l, _ := openLog(t, dir, Options{})
	if _, err := l.Append(rec(1, "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(rec(2, "b")); err != nil {
		t.Fatal(err)
	}
	return dir, l
}

func assertFullState(t *testing.T, dir string) {
	t.Helper()
	snaps, recs, info := replayAll(t, dir, Options{})
	state := map[kv.Key]uint64{}
	for _, e := range snaps {
		state[e.Key] = e.Version.Counter
	}
	for _, r := range recs {
		for _, w := range r.Writes {
			state[w.Key] = r.Version.Counter
		}
	}
	if state["a"] != 1 || state["b"] != 2 || state["c"] != 3 {
		t.Fatalf("recovered state %v, want a=1 b=2 c=3", state)
	}
	if info.Counter != 3 {
		t.Fatalf("counter %d, want 3", info.Counter)
	}
}

func TestCrashWindowTmpSnapshotOnly(t *testing.T) {
	// Crash during snapshot write: tmp file exists, manifest old.
	dir, l := crashWindowLog(t)
	cut, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(rec(3, "c")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulated half-written snapshot.
	tmp := filepath.Join(dir, snapName(cut)+".tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	assertFullState(t, dir)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("tmp snapshot not cleaned up")
	}
}

func TestCrashWindowSnapshotRenamedManifestOld(t *testing.T) {
	// The between-rename-and-manifest window: snapshot renamed into
	// place, manifest still old, covered segments still present (their
	// deletion happens only after the manifest advances). The
	// unreferenced snapshot must be discarded — never half-trusted —
	// and the intact segment run replayed. Build the state by
	// hand-writing the snapshot file, skipping Commit's manifest step.
	dir, l := crashWindowLog(t)
	cut, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(rec(3, "c")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Hand-write a complete snapshot file that the manifest does not
	// reference.
	var fb []byte
	fb = append(fb, fileHeader(snapMagic, cut)...)
	meta := append([]byte{kindSnapMeta}, binary.AppendUvarint(nil, 2)...)
	fb = appendFramed(fb, meta)
	e := SnapshotEntry{Key: "a", Value: kv.Value("val-a"), Version: v(1)}
	fb = appendFramed(fb, appendSnapshotEntry(nil, &e))
	footer := append([]byte{kindSnapFooter}, binary.AppendUvarint(nil, 1)...)
	fb = appendFramed(fb, footer)
	if err := os.WriteFile(filepath.Join(dir, snapName(cut)), fb, 0o644); err != nil {
		t.Fatal(err)
	}
	// Recovery must discard the unreferenced snapshot and replay the
	// intact segment run.
	assertFullState(t, dir)
	if _, err := os.Stat(filepath.Join(dir, snapName(cut))); !os.IsNotExist(err) {
		t.Fatal("unreferenced snapshot not cleaned up")
	}
}

func TestCrashWindowManifestNewLeftoversRemain(t *testing.T) {
	// Crash after the manifest write but before deletion: covered
	// segments and the old snapshot are still on disk. Open must remove
	// them and recover from the new snapshot.
	dir, l := crashWindowLog(t)
	cut, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(rec(3, "c")); err != nil {
		t.Fatal(err)
	}
	// Copy the covered segment aside, snapshot (which deletes it), then
	// restore the copy to simulate the leftover.
	covered := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(covered)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := l.BeginSnapshot(cut, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []SnapshotEntry{
		{Key: "a", Value: kv.Value("val-a"), Version: v(1)},
		{Key: "b", Value: kv.Value("val-b"), Version: v(2)},
	} {
		if err := sw.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(covered, data, 0o644); err != nil {
		t.Fatal(err)
	}
	assertFullState(t, dir)
	if _, err := os.Stat(covered); !os.IsNotExist(err) {
		t.Fatal("covered segment leftover not cleaned up")
	}
}

func TestCrashWindowTornSegmentCreation(t *testing.T) {
	// Crash mid-rotation: the new segment's header write was cut short.
	// Recovery recreates it; no records are lost (none could have been
	// appended to it).
	dir, l := crashWindowLog(t)
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(rec(3, "c")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the newest (empty) segment's header.
	last := lastSegPath(t, dir)
	if err := os.Truncate(last, 5); err != nil {
		t.Fatal(err)
	}
	assertFullState(t, dir)
}

// --- Exhaustive offset tortures ----------------------------------------

// buildTortureLog writes a small log and returns the final segment's
// bytes plus the replayable records it contains.
func buildTortureLog(t *testing.T) (dir string, segPath string, want []Record) {
	t.Helper()
	dir = t.TempDir()
	l, _ := openLog(t, dir, Options{})
	for i := uint64(1); i <= 6; i++ {
		r := rec(i, "a", kv.Key(fmt.Sprintf("k%d", i)))
		want = append(want, r)
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, lastSegPath(t, dir), want
}

// recordsEqual compares replayed records to a prefix of want.
func isPrefix(got, want []Record) bool {
	if len(got) > len(want) {
		return false
	}
	for i := range got {
		if got[i].Version != want[i].Version || len(got[i].Writes) != len(want[i].Writes) {
			return false
		}
		for j := range got[i].Writes {
			g, w := got[i].Writes[j], want[i].Writes[j]
			if g.Key != w.Key || !bytes.Equal(g.Value, w.Value) || !g.Deps.Equal(w.Deps) {
				return false
			}
		}
	}
	return true
}

func TestTortureEveryTruncationOffset(t *testing.T) {
	_, segPath, want := buildTortureLog(t)
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(full); cut++ {
		dir2, _ := imageDir(t, full[:cut])
		l, err := Open(dir2, Options{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		var got []Record
		_, rerr := l.Replay(ReplayHandler{Record: func(r Record) error { got = append(got, r); return nil }})
		l.Close()
		if rerr != nil {
			t.Fatalf("cut %d: truncation must replay a prefix, got error %v", cut, rerr)
		}
		if !isPrefix(got, want) {
			t.Fatalf("cut %d: replayed %d records that are not a committed prefix", cut, len(got))
		}
	}
}

func TestTortureEveryBitFlip(t *testing.T) {
	if testing.Short() {
		t.Skip("bit-flip sweep is slow under -short")
	}
	_, segPath, want := buildTortureLog(t)
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(full); off++ {
		data := make([]byte, len(full))
		copy(data, full)
		data[off] ^= 0xA5
		dir2, _ := imageDir(t, data)
		l, err := Open(dir2, Options{})
		if err != nil {
			continue // refused at open: acceptable (e.g. header damage)
		}
		var got []Record
		_, rerr := l.Replay(ReplayHandler{Record: func(r Record) error { got = append(got, r); return nil }})
		l.Close()
		if rerr != nil {
			if !errors.Is(rerr, ErrCorrupt) {
				t.Fatalf("offset %d: error not named: %v", off, rerr)
			}
			continue
		}
		// Replay succeeded: every record must be an exact committed one,
		// in order — never an invented or altered record. (A flip in the
		// final record's frame may legally truncate it as a torn tail.)
		if !isPrefix(got, want) {
			t.Fatalf("offset %d: replay accepted altered history (%d records)", off, len(got))
		}
	}
}
