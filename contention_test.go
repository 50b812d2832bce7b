package tcache_test

// Contended updates through one cache: several goroutines run
// read-modify-writes of the same keys through one Cache, over a
// database whose commits take long enough for their snapshots to cross.
// The cache marks the keys of its commits in flight, so these updates
// wait for each other instead of conflicting at the database.

import (
	"context"
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcache"
)

// slowCommits forwards to a DB, delaying every commit by delay and
// counting the commits that reach it.
type slowCommits struct {
	*tcache.DB
	delay   time.Duration
	commits *atomic.Int64
}

func newSlowCommits(d *tcache.DB, delay time.Duration) slowCommits {
	return slowCommits{d, delay, new(atomic.Int64)}
}

func (b slowCommits) CommitUpdate(ctx context.Context, reads []tcache.ObservedRead, writes []tcache.KeyValue) (tcache.CommitResult, error) {
	b.commits.Add(1)
	time.Sleep(b.delay)
	return b.DB.CommitUpdate(ctx, reads, writes)
}

// counterAt decodes a counter bumpAll wrote.
func counterAt(t *testing.T, d *tcache.DB, key tcache.Key) uint64 {
	t.Helper()
	v, ok, err := d.Get(context.Background(), key)
	if err != nil || !ok {
		t.Fatalf("%q: found %v, %v", key, ok, err)
	}
	return binary.BigEndian.Uint64(v)
}

// TestUpdateContendedCountersConverge: 8 goroutines × 40 increments of
// the same 5 counters through one Cache, over a database whose commits
// take 1 ms. Every counter ends at 320, all five agree, the cache holds
// each one as the database does, and the database refused no commit.
func TestUpdateContendedCountersConverge(t *testing.T) {
	const workers, rounds = 8, 40
	ctx := context.Background()
	d := tcache.OpenDB(tcache.WithDepListBound(5))
	defer d.Close()
	c, err := tcache.NewCache(newSlowCommits(d, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := groupKeys(0, 5)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := c.Update(ctx, bumpAll(ctx, keys)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, k := range keys {
		if got := counterAt(t, d, k); got != workers*rounds {
			t.Errorf("%q = %d after %d increments", k, got, workers*rounds)
		}
		cv, err := c.Get(ctx, k)
		if err != nil || binary.BigEndian.Uint64(cv) != workers*rounds {
			t.Errorf("%q: cache serves %v (%v)", k, cv, err)
		}
	}
	st := c.Stats()
	t.Logf("commit waits %d, local conflicts %d", st.CommitWaits, st.LocalConflicts)
	if n := d.Core().Metrics().Conflicts; n != 0 {
		t.Errorf("the database refused %d of %d commits from one cache", n, workers*rounds)
	}
}

// TestUpdateOppositeReadOrdersFinish: two updaters read overlapping keys
// in opposite orders through one cache, many times over; a closure
// waits on a commit's marks only while it holds none, so both always
// finish.
func TestUpdateOppositeReadOrdersFinish(t *testing.T) {
	const rounds = 100
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d := tcache.OpenDB(tcache.WithDepListBound(5))
	defer d.Close()
	c, err := tcache.NewCache(newSlowCommits(d, 100*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := groupKeys(0, 4)
	reversed := slices.Clone(keys[1:])
	slices.Reverse(reversed)
	var wg sync.WaitGroup
	for _, order := range [][]tcache.Key{keys[:3], reversed} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := c.Update(ctx, bumpAll(ctx, order)); err != nil {
					t.Errorf("update %d over %q: %v", i, order, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, want := range []uint64{rounds, 2 * rounds, 2 * rounds, rounds} {
		if got := counterAt(t, d, keys[i]); got != want {
			t.Errorf("%q = %d, want %d", keys[i], got, want)
		}
	}
}

// TestUpdateLocalConflictSkipsBackend: an update whose read the cache
// has already seen superseded — here by a nested update that committed
// through the same cache while the outer closure ran — fails before its
// commit leaves the cache and retries at once against the cached
// version. Only the two commits that succeed reach the backend.
func TestUpdateLocalConflictSkipsBackend(t *testing.T) {
	ctx := context.Background()
	d := tcache.OpenDB(tcache.WithDepListBound(5))
	defer d.Close()
	b := newSlowCommits(d, 0)
	c, err := tcache.NewCache(b)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := groupKeys(0, 1)
	nested := false
	if err := c.Update(ctx, func(tx *tcache.Tx) error {
		if err := bumpAll(ctx, keys)(tx); err != nil || nested {
			return err
		}
		nested = true
		return c.Update(ctx, bumpAll(ctx, keys))
	}); err != nil {
		t.Fatal(err)
	}
	if got := counterAt(t, d, keys[0]); got != 2 {
		t.Fatalf("%q = %d after two increments", keys[0], got)
	}
	if n, st := b.commits.Load(), c.Stats(); n != 2 || st.LocalConflicts != 1 {
		t.Fatalf("%d commits reached the backend, %d local conflicts; want 2 and 1", n, st.LocalConflicts)
	}
	if n := d.Core().Metrics().Conflicts; n != 0 {
		t.Fatalf("the database refused %d commits", n)
	}
}
