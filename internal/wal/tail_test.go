package wal

import (
	"context"
	"errors"
	"testing"
	"time"

	"tcache/internal/kv"
)

// tailNext calls Next with a bounded context so a wedged tailer fails
// the test instead of hanging the suite.
func tailNext(t *testing.T, tl *Tailer) (Record, Pos) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rec, pos, err := tl.Next(ctx)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	return rec, pos
}

// TestTailerLiveStream tails an initially empty log while records land:
// every Append wakes the blocked tailer, records arrive in commit
// order, and each end Pos matches the Pos Append returned — the
// contract replication acks are built on.
func TestTailerLiveStream(t *testing.T) {
	l, _ := openLog(t, t.TempDir(), Options{})
	defer l.Close()

	// The reader goroutine owns the tailer (a Tailer is single-user);
	// the test only cancels and waits.
	type tailed struct {
		rec Record
		pos Pos
	}
	got := make(chan tailed)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	defer func() { cancel(); <-done }()
	go func() {
		defer close(done)
		tl := l.Tail(Pos{})
		defer tl.Close()
		for {
			rec, pos, err := tl.Next(ctx)
			if err != nil {
				return
			}
			got <- tailed{rec, pos}
		}
	}()

	var ends []Pos
	for i := uint64(1); i <= 5; i++ {
		pos, err := l.Append(rec(i, "a"))
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, pos)
	}
	// A batch appends atomically; the returned Pos is the end of the
	// whole batch, i.e. the end Pos of its last record.
	batch := []Record{rec(6, "b"), rec(7, "c"), rec(8, "d")}
	bpos, err := l.AppendBatch(batch)
	if err != nil {
		t.Fatal(err)
	}

	var last Pos
	for want := uint64(1); want <= 8; want++ {
		select {
		case tr := <-got:
			if tr.rec.Version.Counter != want {
				t.Fatalf("tailed version %d, want %d", tr.rec.Version.Counter, want)
			}
			if tr.pos.Less(last) || tr.pos == last {
				t.Fatalf("end pos %s did not advance past %s", tr.pos, last)
			}
			if want <= 5 && tr.pos != ends[want-1] {
				t.Fatalf("record %d end pos %s, want Append's %s", want, tr.pos, ends[want-1])
			}
			last = tr.pos
		case <-time.After(5 * time.Second):
			t.Fatalf("tailer never delivered record %d", want)
		}
	}
	if last != bpos {
		t.Fatalf("last end pos %s, want AppendBatch's %s", last, bpos)
	}
}

// TestTailerCrossesRotation forces many segment rotations, then tails
// the whole log from zero: the tailer must walk each sealed segment to
// EOF and step onto the next without dropping or reordering records.
func TestTailerCrossesRotation(t *testing.T) {
	l, _ := openLog(t, t.TempDir(), Options{SegmentSize: 256})
	defer l.Close()

	const n = 40
	for i := uint64(1); i <= n; i++ {
		if _, err := l.Append(rec(i, "key")); err != nil {
			t.Fatal(err)
		}
	}
	if m := l.Metrics(); m.Rotations == 0 {
		t.Fatal("test expected at least one rotation; raise n or shrink SegmentSize")
	}

	tl := l.Tail(Pos{})
	defer tl.Close()
	for i := uint64(1); i <= n; i++ {
		r, _ := tailNext(t, tl)
		if r.Version.Counter != i {
			t.Fatalf("record %d has version %d", i, r.Version.Counter)
		}
	}
}

// TestTailerResumesFromPos reads a prefix, drops the tailer, and
// resumes a fresh one at the saved cursor — the restart path a standby
// takes after a reconnect.
func TestTailerResumesFromPos(t *testing.T) {
	l, _ := openLog(t, t.TempDir(), Options{})
	defer l.Close()
	for i := uint64(1); i <= 6; i++ {
		if _, err := l.Append(rec(i, "k")); err != nil {
			t.Fatal(err)
		}
	}

	tl := l.Tail(Pos{})
	var cursor Pos
	for i := uint64(1); i <= 3; i++ {
		_, cursor = tailNext(t, tl)
	}
	tl.Close()

	if !l.Resumable(cursor) {
		t.Fatalf("cursor %s not resumable on an untruncated log", cursor)
	}
	tl2 := l.Tail(cursor)
	defer tl2.Close()
	for i := uint64(4); i <= 6; i++ {
		r, _ := tailNext(t, tl2)
		if r.Version.Counter != i {
			t.Fatalf("resumed record has version %d, want %d", r.Version.Counter, i)
		}
	}
}

// TestTailerUnblocksOnCancelAndClose parks a tailer on a caught-up log
// and verifies both wake-up paths: context cancellation returns the
// context's error, and closing the log returns ErrClosed.
func TestTailerUnblocksOnCancelAndClose(t *testing.T) {
	l, _ := openLog(t, t.TempDir(), Options{})
	defer l.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		tl := l.Tail(Pos{})
		defer tl.Close()
		_, _, err := tl.Next(ctx)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it park on the flush channel
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Next returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Next never returned")
	}

	go func() {
		tl2 := l.Tail(Pos{})
		defer tl2.Close()
		_, _, err := tl2.Next(context.Background())
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Next on closed log returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next never observed the closed log")
	}
}

// TestTailerLaggedAfterTruncation commits a snapshot that deletes the
// segment a parked cursor still needs: Resumable flips to false and a
// tailer at that position reports ErrTailerLagged, the signal that
// replication must fall back to a full state transfer.
func TestTailerLaggedAfterTruncation(t *testing.T) {
	l, _ := openLog(t, t.TempDir(), Options{SegmentSize: 256})
	defer l.Close()

	var firstEnd Pos
	for i := uint64(1); i <= 20; i++ {
		pos, err := l.Append(rec(i, "k"))
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			firstEnd = pos
		}
	}
	if !l.Resumable(firstEnd) {
		t.Fatalf("pos %s not resumable before truncation", firstEnd)
	}

	cut, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	sw, err := l.BeginSnapshot(cut, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Add(SnapshotEntry{Key: "k", Value: kv.Value("val-k"), Version: v(20)}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Commit(); err != nil {
		t.Fatal(err)
	}

	// A zero position always resumes (it means "oldest live"), but the
	// pre-truncation cursor's segment is gone.
	if !l.Resumable(Pos{}) {
		t.Fatal("zero pos must always be resumable")
	}
	if l.Resumable(firstEnd) {
		t.Fatalf("pos %s still resumable after its segment was truncated", firstEnd)
	}
	tl := l.Tail(firstEnd)
	defer tl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, _, err := tl.Next(ctx); !errors.Is(err, ErrTailerLagged) {
		t.Fatalf("Next below the truncation returned %v, want ErrTailerLagged", err)
	}

	// From zero the tailer starts at the new first segment and streams
	// the post-cut suffix.
	tl2 := l.Tail(Pos{})
	defer tl2.Close()
	if _, err := l.Append(rec(21, "k")); err != nil {
		t.Fatal(err)
	}
	r, _ := tailNext(t, tl2)
	if r.Version.Counter != 21 {
		t.Fatalf("post-truncation tail started at version %d, want 21", r.Version.Counter)
	}
}

// TestTailerFinishesItsOpenSegmentAcrossTruncation commits a snapshot
// that deletes the segment a tailer is reading: the tailer keeps up, so
// it must read that segment to its end and cross into the next one, not
// lag into a full state transfer.
func TestTailerFinishesItsOpenSegmentAcrossTruncation(t *testing.T) {
	l, _ := openLog(t, t.TempDir(), Options{})
	defer l.Close()
	for i := uint64(1); i <= 5; i++ {
		if _, err := l.Append(rec(i, "k")); err != nil {
			t.Fatal(err)
		}
	}
	tl := l.Tail(Pos{})
	defer tl.Close()
	tailNext(t, tl)

	cut, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	sw, err := l.BeginSnapshot(cut, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Commit(); err != nil {
		t.Fatal(err)
	}
	if l.Resumable(Pos{Seq: cut - 1}) {
		t.Fatal("the truncated segment is still resumable")
	}
	if _, err := l.Append(rec(6, "k")); err != nil {
		t.Fatal(err)
	}
	for want := uint64(2); want <= 6; want++ {
		if r, _ := tailNext(t, tl); r.Version.Counter != want {
			t.Fatalf("tailer read version %d, want %d", r.Version.Counter, want)
		}
	}
}
