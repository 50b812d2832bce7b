package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"tcache/internal/kv"
)

// heldCommit is a CommitFunc that blocks until the test sends its
// answer: nil commits at version 9 with empty lists, an error fails it.
// entered closes when the call arrives.
type heldCommit struct {
	entered chan struct{}
	answer  chan error
}

func newHeldCommit() *heldCommit {
	return &heldCommit{entered: make(chan struct{}), answer: make(chan error)}
}

func (h *heldCommit) commit(ctx context.Context, reads []kv.ObservedRead, writes []kv.KeyValue) (kv.CommitResult, error) {
	close(h.entered)
	if err := <-h.answer; err != nil {
		return kv.CommitResult{}, err
	}
	return kv.CommitResult{Version: kv.Version{Counter: 9}, Deps: make([]kv.DepList, len(writes))}, nil
}

// markCount returns the number of keys marked by commits in flight.
func markCount(c *Cache) int {
	c.marks.mu.Lock()
	defer c.marks.mu.Unlock()
	return len(c.marks.keys)
}

// awaitWaits polls until c has counted n commit waits.
func awaitWaits(t *testing.T, c *Cache, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Metrics().CommitWaits < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d commit waits, want %d", c.Metrics().CommitWaits, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// heldRMW starts a read-modify-write of "k" (read at version 1, cached)
// whose commit the returned heldCommit holds, and waits until its marks
// are set; the channel yields Commit's error.
func heldRMW(t *testing.T) (*Cache, *heldCommit, chan error) {
	b := newMapBackend()
	b.put("k", "k1", 1)
	c := newCache(t, Config{Backend: b})
	if _, err := c.Get(bgc, "k"); err != nil {
		t.Fatal(err)
	}
	h := newHeldCommit()
	errc := make(chan error, 1)
	go func() {
		_, err := c.Commit(bgc, h.commit, []kv.ObservedRead{{Key: "k", Version: kv.Version{Counter: 1}, Found: true}},
			[]kv.KeyValue{{Key: "k", Value: kv.Value("k2")}})
		errc <- err
	}()
	<-h.entered
	if n := markCount(c); n != 1 {
		t.Fatalf("%d keys marked by a one-write commit in flight", n)
	}
	return c, h, errc
}

// TestCommitWaitCancelled: a read and a claim waiting on a mark return
// their ctx's error when it is cancelled, and leave no mark behind; the
// commit they waited on installs and releases its own.
func TestCommitWaitCancelled(t *testing.T) {
	c, h, errc := heldRMW(t)
	ctx, cancel := context.WithCancel(bgc)
	read, claim := make(chan error, 1), make(chan error, 1)
	go func() { read <- c.AwaitCommits(ctx, "other", "k") }()
	go func() {
		_, err := c.Commit(ctx, func(context.Context, []kv.ObservedRead, []kv.KeyValue) (kv.CommitResult, error) {
			t.Error("a claim cancelled while it waited reached the backend")
			return kv.CommitResult{}, nil
		}, []kv.ObservedRead{{Key: "k", Version: kv.Version{Counter: 1}, Found: true}}, []kv.KeyValue{{Key: "j", Value: kv.Value("j")}})
		claim <- err
	}()
	awaitWaits(t, c, 2)
	cancel()
	if err := <-read; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled read wait returned %v", err)
	}
	if err := <-claim; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled claim returned %v", err)
	}
	if n := markCount(c); n != 1 {
		t.Fatalf("%d keys marked after the waiters left, want the held commit's 1", n)
	}
	h.answer <- nil
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if n := markCount(c); n != 0 {
		t.Fatalf("%d keys still marked after the commit installed", n)
	}
	if v := cachedVersion(c, "k"); v != 9 {
		t.Fatalf("k cached at %d after the commit at 9", v)
	}
}

// TestCommitFailureReleasesMarks: a commit that fails at the backend
// releases its marks, and the read that waited on them serves the old
// version.
func TestCommitFailureReleasesMarks(t *testing.T) {
	c, h, errc := heldRMW(t)
	got := make(chan kv.Item, 1)
	go func() {
		if err := c.AwaitCommits(bgc, "k"); err != nil {
			t.Error(err)
		}
		item, _, err := c.GetItem(bgc, "k", kv.Version{})
		if err != nil {
			t.Error(err)
		}
		got <- item
	}()
	awaitWaits(t, c, 1)
	down := errors.New("backend down")
	h.answer <- down
	if err := <-errc; !errors.Is(err, down) {
		t.Fatalf("failed commit returned %v", err)
	}
	if item := <-got; item.Version.Counter != 1 || string(item.Value) != "k1" {
		t.Fatalf("waiter read %q@%d, want the old k1@1", item.Value, item.Version.Counter)
	}
	if n := markCount(c); n != 0 {
		t.Fatalf("%d keys still marked after the commit failed", n)
	}
}

// TestCommitStaleReadFailsLocally: a read the cache holds newer than
// observed, or holds though it was observed absent, fails the commit
// with a *StaleRead before the backend is called, and marks nothing.
func TestCommitStaleReadFailsLocally(t *testing.T) {
	b := newMapBackend()
	c := newCache(t, Config{Backend: b})
	c.Install("k", itemAt("k5", 5))
	calls := 0
	commit := func(context.Context, []kv.ObservedRead, []kv.KeyValue) (kv.CommitResult, error) {
		calls++
		return kv.CommitResult{}, nil
	}
	writes := []kv.KeyValue{{Key: "j", Value: kv.Value("j")}}
	for _, read := range []kv.ObservedRead{
		{Key: "k", Version: kv.Version{Counter: 3}, Found: true},
		{Key: "k"},
	} {
		_, err := c.Commit(bgc, commit, []kv.ObservedRead{{Key: "j"}, read}, writes)
		var stale *StaleRead
		if !errors.As(err, &stale) || stale.Key != "k" || stale.Cached.Counter != 5 {
			t.Fatalf("read %+v: Commit returned %v, want a stale read of k at 5", read, err)
		}
	}
	if _, err := c.Commit(bgc, commit, []kv.ObservedRead{{Key: "k", Version: kv.Version{Counter: 5}, Found: true}}, writes); err != nil {
		t.Fatalf("current read: %v", err)
	}
	if m := c.Metrics(); calls != 1 || m.LocalConflicts != 2 || markCount(c) != 0 {
		t.Fatalf("backend calls %d, local conflicts %d, marks %d; want 1, 2, 0", calls, m.LocalConflicts, markCount(c))
	}
}
