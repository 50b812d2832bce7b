package db

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"tcache/internal/kv"
	"tcache/internal/wal"
)

func recoverDB(t *testing.T, cfg Config, dir string) *DB {
	t.Helper()
	d, err := Recover(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// newestSegment returns the path of the highest-numbered segment file —
// the one holding the log tail.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "seg-") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		t.Fatal("no segment files")
	}
	sort.Strings(segs)
	return filepath.Join(dir, segs[len(segs)-1])
}

func dirSize(t *testing.T, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

func TestRecoverEmptyLog(t *testing.T) {
	d := recoverDB(t, Config{DepBound: 5}, t.TempDir())
	defer d.Close()
	if d.Len() != 0 {
		t.Fatalf("fresh recovered DB has %d items", d.Len())
	}
	write(t, d, "a")
}

func TestRecoverRestoresStateAndDeps(t *testing.T) {
	dir := t.TempDir()
	d := recoverDB(t, Config{DepBound: 5}, dir)
	write(t, d, "a", "b") // a depends on b and vice versa
	v2 := write(t, d, "b", "c")
	before, _ := d.Get("b")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := recoverDB(t, Config{DepBound: 5}, dir)
	defer d2.Close()
	after, ok := d2.Get("b")
	if !ok {
		t.Fatal("b lost across restart")
	}
	if after.Version != before.Version || string(after.Value) != string(before.Value) {
		t.Fatalf("b = %+v, want %+v", after, before)
	}
	if !after.Deps.Equal(before.Deps) {
		t.Fatalf("deps lost: %v vs %v", after.Deps, before.Deps)
	}
	if after.Version != v2 {
		t.Fatalf("version = %v, want %v", after.Version, v2)
	}
	if info := d2.Recovery(); info.Records != 2 || info.Counter == 0 {
		t.Fatalf("RecoveryInfo = %+v, want 2 records and a counter", info)
	}
}

func TestRecoverContinuesVersionCounter(t *testing.T) {
	dir := t.TempDir()
	d := recoverDB(t, Config{DepBound: 5}, dir)
	vOld := write(t, d, "a")
	d.Close()

	d2 := recoverDB(t, Config{DepBound: 5}, dir)
	defer d2.Close()
	vNew := write(t, d2, "b")
	if !vOld.Less(vNew) {
		t.Fatalf("recovered counter regressed: %v then %v", vOld, vNew)
	}
}

func TestRecoverReplaysLatestVersionLast(t *testing.T) {
	dir := t.TempDir()
	d := recoverDB(t, Config{DepBound: 5}, dir)
	for i := 0; i < 10; i++ {
		write(t, d, "hot")
	}
	latest, _ := d.Get("hot")
	d.Close()

	d2 := recoverDB(t, Config{DepBound: 5}, dir)
	defer d2.Close()
	got, _ := d2.Get("hot")
	if got.Version != latest.Version {
		t.Fatalf("recovered version %v, want latest %v", got.Version, latest.Version)
	}
}

func TestRecoverAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	d := recoverDB(t, Config{DepBound: 5}, dir)
	write(t, d, "a")
	write(t, d, "b")
	d.Close()

	seg := newestSegment(t, dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	d2 := recoverDB(t, Config{DepBound: 5}, dir)
	defer d2.Close()
	if _, ok := d2.Get("a"); !ok {
		t.Fatal("intact record a lost")
	}
	if _, ok := d2.Get("b"); ok {
		t.Fatal("torn record b recovered")
	}
	if tb := d2.Recovery().TornBytes; tb == 0 {
		t.Fatal("torn tail not reported in RecoveryInfo")
	}
	// The database continues accepting commits after a torn tail.
	write(t, d2, "c")
}

func TestRecoverCorruptLogFails(t *testing.T) {
	dir := t.TempDir()
	d := recoverDB(t, Config{DepBound: 5}, dir)
	write(t, d, "a")
	write(t, d, "b")
	d.Close()
	// Flip a byte inside the FIRST record's payload. A later record is
	// still intact, so this must surface as corruption — not be silently
	// treated as a torn tail.
	seg := newestSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[16+8+2] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Recover(Config{DepBound: 5}, dir)
	if err == nil {
		t.Fatal("Recover accepted a corrupt log")
	}
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("corruption error not named: %v", err)
	}
}

func TestRecoveredDBServesCaches(t *testing.T) {
	// End-to-end: dependency lists recovered from the WAL still drive
	// inconsistency detection (the metadata survives restarts).
	dir := t.TempDir()
	d := recoverDB(t, Config{DepBound: 5}, dir)
	write(t, d, "x", "y")
	d.Close()

	d2 := recoverDB(t, Config{DepBound: 5}, dir)
	defer d2.Close()
	x, _ := d2.Get("x")
	if _, ok := x.Deps.Lookup("y"); !ok {
		t.Fatalf("x's dependency on y lost across restart: %v", x.Deps)
	}
}

func TestSeedNotDurable(t *testing.T) {
	dir := t.TempDir()
	d := recoverDB(t, Config{DepBound: 5}, dir)
	d.Seed("seeded", kv.Value("v"), kv.Version{Counter: 1})
	write(t, d, "written")
	d.Close()

	d2 := recoverDB(t, Config{DepBound: 5}, dir)
	defer d2.Close()
	if _, ok := d2.Get("seeded"); ok {
		t.Fatal("Seed survived restart; it is documented as non-durable")
	}
	if _, ok := d2.Get("written"); !ok {
		t.Fatal("transactional write lost")
	}
}

func TestSnapshotShrinksLogAndPreservesState(t *testing.T) {
	dir := t.TempDir()
	d := recoverDB(t, Config{DepBound: 5}, dir)
	// Many overwrites of few keys: the log is much bigger than the state.
	for i := 0; i < 200; i++ {
		write(t, d, "a", "b")
	}
	before := dirSize(t, dir)
	wantA, _ := d.Get("a")
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	after := dirSize(t, dir)
	if after >= before/10 {
		t.Fatalf("snapshot barely shrank the log: %d → %d bytes", before, after)
	}
	if d.Metrics().Snapshots != 1 {
		t.Fatalf("Snapshots = %d, want 1", d.Metrics().Snapshots)
	}
	// Commits continue after the snapshot and everything survives restart.
	write(t, d, "c")
	d.Close()
	d2 := recoverDB(t, Config{DepBound: 5}, dir)
	defer d2.Close()
	gotA, ok := d2.Get("a")
	if !ok || gotA.Version != wantA.Version || !gotA.Deps.Equal(wantA.Deps) {
		t.Fatalf("a after snapshot+restart = %+v, want %+v", gotA, wantA)
	}
	if _, ok := d2.Get("c"); !ok {
		t.Fatal("post-snapshot commit lost")
	}
	if info := d2.Recovery(); info.SnapshotEntries != 2 {
		t.Fatalf("RecoveryInfo = %+v, want 2 snapshot entries", info)
	}
}

func TestCompactNoWALIsNoop(t *testing.T) {
	d := open(t, Config{DepBound: 5})
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotConcurrentWithCommits(t *testing.T) {
	dir := t.TempDir()
	d := recoverDB(t, Config{DepBound: 5}, dir)
	defer d.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			write(t, d, kv.Key(fmt.Sprintf("k%d", i%7)))
		}
	}()
	for i := 0; i < 5; i++ {
		if err := d.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	// All commits must be recoverable.
	d.Close()
	d2 := recoverDB(t, Config{DepBound: 5}, dir)
	defer d2.Close()
	for i := 0; i < 7; i++ {
		if _, ok := d2.Get(kv.Key(fmt.Sprintf("k%d", i))); !ok {
			t.Fatalf("k%d lost across snapshot race", i)
		}
	}
}

func TestBackgroundSnapshotWorker(t *testing.T) {
	dir := t.TempDir()
	d := recoverDB(t, Config{DepBound: 5, SnapshotEvery: 10}, dir)
	for i := 0; i < 60; i++ {
		write(t, d, kv.Key(fmt.Sprintf("k%d", i%5)))
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.Metrics().Snapshots == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background snapshot never ran")
		}
		time.Sleep(time.Millisecond)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := recoverDB(t, Config{DepBound: 5}, dir)
	defer d2.Close()
	for i := 0; i < 5; i++ {
		if _, ok := d2.Get(kv.Key(fmt.Sprintf("k%d", i))); !ok {
			t.Fatalf("k%d lost across background snapshot", i)
		}
	}
}

// TestConcurrentCommitsSyncMode hammers the full pipeline — mint,
// group-commit append with fsync, door-ordered apply — and checks the
// observable invariants: everything recoverable, commit hooks saw
// strictly increasing versions, and fsyncs were shared across commits.
func TestConcurrentCommitsSyncMode(t *testing.T) {
	dir := t.TempDir()
	d := recoverDB(t, Config{DepBound: 5, WALSync: true}, dir)

	var hookMu sync.Mutex
	var hookVersions []kv.Version
	d.OnCommit(func(rec CommitRecord) {
		hookMu.Lock()
		hookVersions = append(hookVersions, rec.Version)
		hookMu.Unlock()
	})

	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				write(t, d, kv.Key(fmt.Sprintf("w%d-%d", w, i)))
			}
		}(w)
	}
	wg.Wait()

	m := d.Metrics()
	if m.WALRecords != writers*perWriter {
		t.Fatalf("WALRecords = %d, want %d", m.WALRecords, writers*perWriter)
	}
	if m.WALFsyncs != m.WALBatches {
		t.Fatalf("sync mode: fsyncs %d != batches %d", m.WALFsyncs, m.WALBatches)
	}
	if m.WALBatches > m.WALRecords {
		t.Fatalf("more batches (%d) than records (%d)", m.WALBatches, m.WALRecords)
	}
	hookMu.Lock()
	for i := 1; i < len(hookVersions); i++ {
		if !hookVersions[i-1].Less(hookVersions[i]) {
			t.Fatalf("commit hooks out of version order at %d: %v then %v",
				i, hookVersions[i-1], hookVersions[i])
		}
	}
	hookMu.Unlock()

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := recoverDB(t, Config{DepBound: 5}, dir)
	defer d2.Close()
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if _, ok := d2.Get(kv.Key(fmt.Sprintf("w%d-%d", w, i))); !ok {
				t.Fatalf("w%d-%d lost", w, i)
			}
		}
	}
}

// TestCloseReportsWALError verifies the Close error path — the bug this
// PR fixes was Close swallowing the log's error. Deleting the directory
// makes the post-append segment rotation fail, fail-stopping the log;
// Close must report that instead of returning nil.
func TestCloseReportsWALError(t *testing.T) {
	dir := t.TempDir()
	d := recoverDB(t, Config{DepBound: 5, WALSegmentSize: 1}, dir)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	// The append itself lands in the already-open segment file and
	// succeeds; the rotation it triggers cannot create the next segment.
	write(t, d, "a")
	err := d.Close()
	if err == nil {
		t.Fatal("Close swallowed the fail-stopped log error")
	}
	if !errors.Is(err, wal.ErrWriteFailed) {
		t.Fatalf("Close error not named: %v", err)
	}
}

// TestCommitAbortsOnWALAppendFailure covers the commit's one abort after
// the version is minted: the log refuses the record. Nothing may be
// applied, the locks must be released, the abort counted, and the door
// advanced so the next committer does not wait forever for this ticket.
func TestCommitAbortsOnWALAppendFailure(t *testing.T) {
	d := recoverDB(t, Config{DepBound: 5}, t.TempDir())
	defer d.Close()
	if err := d.wal.Close(); err != nil {
		t.Fatal(err)
	}
	aborted := d.Metrics().TxnsAborted
	if _, err := d.CommitUpdate(bg, nil, []kv.KeyValue{{Key: "a", Value: kv.Value("x")}}); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("Commit = %v, want the wrapped wal.ErrClosed", err)
	}
	if _, ok := d.Get("a"); ok {
		t.Fatal("a write whose append failed became visible")
	}
	hold, err := d.HoldKey(bg, "a") // at once, or the aborted commit kept its lock
	if err != nil {
		t.Fatal(err)
	}
	hold.Release()
	if got := d.Metrics().TxnsAborted - aborted; got != 1 {
		t.Fatalf("TxnsAborted rose by %d, want 1", got)
	}
	done := make(chan error, 1)
	go func() {
		_, err := d.CommitUpdate(bg, nil, []kv.KeyValue{{Key: "b", Value: kv.Value("y")}})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, wal.ErrClosed) {
			t.Fatalf("second Commit = %v, want the wrapped wal.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second commit hung at the door behind the aborted ticket")
	}
}

func TestCloseIdempotent(t *testing.T) {
	d := recoverDB(t, Config{DepBound: 5}, t.TempDir())
	write(t, d, "a")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestJoinImageNeverOlderThanTheReplica opens join images for replicas
// holding state through various counters. A replica ahead of the newest
// snapshot (a restarted standby) gets a fresh one, never older than its
// state; one at or below it, or ahead of this node (it holds writes this
// node never made), shares the newest file.
func TestJoinImageNeverOlderThanTheReplica(t *testing.T) {
	d := recoverDB(t, Config{}, t.TempDir())
	defer d.Close()
	join := func(replica, wantCounter, wantSnapshots uint64) {
		t.Helper()
		f, cut, err := d.JoinImage(replica)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		counter, _, err := wal.ReadSnapshot(b, cut.Seq, wal.ReplayHandler{})
		if err != nil || counter != wantCounter || d.Metrics().Snapshots != wantSnapshots {
			t.Fatalf("join at %d: image counter %d (%v), %d snapshots; want counter %d, %d snapshots",
				replica, counter, err, d.Metrics().Snapshots, wantCounter, wantSnapshots)
		}
	}
	write(t, d, "a")
	write(t, d, "b")
	join(0, 2, 1) // no snapshot yet: the first join takes one
	write(t, d, "a")
	write(t, d, "c")
	join(0, 2, 1) // a fresh replica takes the newest file
	join(2, 2, 1) // so does one that holds no more than it
	join(9, 2, 1) // and one that holds writes this node never made
	join(3, 4, 2) // a restarted replica ahead of it gets a fresh image
	join(4, 4, 2)
}
