package tcache_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"tcache"
)

// remoteRig is the paper's deployment over loopback, end to end through
// the public API: a DB served over TCP (tdbd-style), a Remote dialed to
// it, and a T-Cache attached to the Remote.
type remoteRig struct {
	db     *tcache.DB
	addr   string
	remote *tcache.Remote
	cache  *tcache.Cache
}

func newRemoteRig(t *testing.T, opts ...tcache.CacheOption) *remoteRig {
	t.Helper()
	ctx := context.Background()
	db := tcache.OpenDB(tcache.WithDepListBound(5))
	t.Cleanup(func() { db.Close() })
	addr, stop, err := tcache.ServeDB(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	remote, err := tcache.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(remote.Close)
	cache, err := tcache.NewCache(remote, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cache.Close)
	return &remoteRig{db: db, addr: addr, remote: remote, cache: cache}
}

// tearSnapshot builds the canonical inconsistency over the wire: the
// cache holds b at its old version (all invalidations dropped), while
// the database rewrites a and b in one transaction.
func (r *remoteRig) tearSnapshot(t *testing.T) {
	t.Helper()
	ctx := context.Background()
	for _, k := range []tcache.Key{"a", "b"} {
		k := k
		if err := r.db.Update(ctx, func(tx *tcache.Tx) error {
			return tx.Set(k, tcache.Value("v0-"+string(k)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.cache.Get(ctx, "b"); err != nil { // cache b@v0
		t.Fatal(err)
	}
	if err := r.db.Update(ctx, func(tx *tcache.Tx) error {
		for _, k := range []tcache.Key{"a", "b"} {
			if _, _, err := tx.Get(ctx, k); err != nil {
				return err
			}
		}
		for _, k := range []tcache.Key{"a", "b"} {
			if err := tx.Set(k, tcache.Value("v1-"+string(k))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// readAB runs the torn read-only transaction (fresh a, stale cached b).
func (r *remoteRig) readAB(t *testing.T) (b tcache.Value, err error) {
	t.Helper()
	ctx := context.Background()
	err = r.cache.ReadTxn(ctx, func(tx *tcache.ReadTx) error {
		if _, err := tx.Get(ctx, "a"); err != nil {
			return err
		}
		var gerr error
		b, gerr = tx.Get(ctx, "b")
		return gerr
	})
	return b, err
}

// TestRemoteSerializabilitySuite runs the abort/evict/retry strategy
// contract against a Dial-attached remote backend: the same guarantees
// the embedded cache gives, over the wire.
func TestRemoteSerializabilitySuite(t *testing.T) {
	t.Run("abort", func(t *testing.T) {
		r := newRemoteRig(t,
			tcache.WithStrategy(tcache.StrategyAbort),
			tcache.WithLossyLink(1.0, 0, 0, 1))
		r.tearSnapshot(t)
		if _, err := r.readAB(t); !errors.Is(err, tcache.ErrTxnAborted) {
			t.Fatalf("torn snapshot over the wire = %v, want ErrTxnAborted", err)
		}
		if got := r.cache.Core().ActiveTxns(); got != 0 {
			t.Fatalf("leaked txn records: %d", got)
		}
	})

	t.Run("evict", func(t *testing.T) {
		r := newRemoteRig(t,
			tcache.WithStrategy(tcache.StrategyEvict),
			tcache.WithLossyLink(1.0, 0, 0, 1))
		r.tearSnapshot(t)
		if _, err := r.readAB(t); !errors.Is(err, tcache.ErrTxnAborted) {
			t.Fatalf("first attempt = %v, want ErrTxnAborted", err)
		}
		// EVICT removed the stale entry: the retry reads fresh data.
		b, err := r.readAB(t)
		if err != nil || string(b) != "v1-b" {
			t.Fatalf("retry after EVICT = %q, %v", b, err)
		}
	})

	t.Run("retry", func(t *testing.T) {
		r := newRemoteRig(t,
			tcache.WithStrategy(tcache.StrategyRetry),
			tcache.WithLossyLink(1.0, 0, 0, 1))
		r.tearSnapshot(t)
		b, err := r.readAB(t)
		if err != nil {
			t.Fatalf("RETRY should have healed over the wire: %v", err)
		}
		if string(b) != "v1-b" {
			t.Fatalf("b = %q, want v1-b", b)
		}
	})

	t.Run("getmulti", func(t *testing.T) {
		// The same torn snapshot through the batched read path.
		r := newRemoteRig(t,
			tcache.WithStrategy(tcache.StrategyRetry),
			tcache.WithLossyLink(1.0, 0, 0, 1))
		r.tearSnapshot(t)
		ctx := context.Background()
		var page []tcache.Value
		err := r.cache.ReadTxn(ctx, func(tx *tcache.ReadTx) error {
			var gerr error
			page, gerr = tx.GetMulti(ctx, "a", "b")
			return gerr
		})
		if err != nil {
			t.Fatalf("GetMulti over the wire = %v", err)
		}
		if string(page[0]) != "v1-a" || string(page[1]) != "v1-b" {
			t.Fatalf("page = %q", page)
		}
	})
}

// TestRemoteGetMultiBatchesMisses asserts the wire-level batching: N cold
// keys are prefetched in one backend batch request.
func TestRemoteGetMultiBatchesMisses(t *testing.T) {
	r := newRemoteRig(t)
	ctx := context.Background()
	keys := make([]tcache.Key, 8)
	for i := range keys {
		keys[i] = tcache.Key(fmt.Sprintf("cold%d", i))
		k := keys[i]
		if err := r.db.Update(ctx, func(tx *tcache.Tx) error {
			return tx.Set(k, tcache.Value("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.cache.ReadTxn(ctx, func(tx *tcache.ReadTx) error {
		vals, err := tx.GetMulti(ctx, keys...)
		if err != nil {
			return err
		}
		if len(vals) != len(keys) {
			return fmt.Errorf("got %d values", len(vals))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s := r.cache.Stats()
	if s.BatchPrefetches != 1 || s.BatchPrefetchedKeys != 8 {
		t.Fatalf("batch stats = prefetches=%d keys=%d, want 1/8", s.BatchPrefetches, s.BatchPrefetchedKeys)
	}
}

// TestRemoteUpdateRoundTrip covers the unified Remote.Update: a closure
// committed in one validated round trip, visible to the cache via
// invalidation — and through the raw ValidatedUpdate capability, whose
// commit version must be non-zero.
func TestRemoteUpdateRoundTrip(t *testing.T) {
	r := newRemoteRig(t)
	ctx := context.Background()
	if err := r.remote.Update(ctx, func(tx *tcache.Tx) error {
		return tx.Set("k", tcache.Value("v1"))
	}); err != nil {
		t.Fatal(err)
	}
	val, err := r.cache.Get(ctx, "k")
	if err != nil || string(val) != "v1" {
		t.Fatalf("cache read of remote update = %q, %v", val, err)
	}
	v, err := r.remote.ValidatedUpdate(ctx, nil, []tcache.KeyValue{{Key: "k", Value: tcache.Value("v2")}})
	if err != nil {
		t.Fatal(err)
	}
	if v.IsZero() {
		t.Fatal("zero commit version")
	}
}

// TestReadTxnCancelReleasesRecord cancels a ReadTxn's ctx mid-read and
// proves the transaction record is released and the error is the
// context's.
func TestReadTxnCancelReleasesRecord(t *testing.T) {
	r := newRemoteRig(t)
	ctx := context.Background()
	if err := r.db.Update(ctx, func(tx *tcache.Tx) error {
		return tx.Set("k", tcache.Value("v"))
	}); err != nil {
		t.Fatal(err)
	}

	rctx, cancel := context.WithCancel(ctx)
	err := r.cache.ReadTxn(rctx, func(tx *tcache.ReadTx) error {
		if _, err := tx.Get(rctx, "k"); err != nil {
			return err
		}
		cancel() // the ctx dies mid-transaction
		_, err := tx.Get(rctx, "k2")
		return err
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ReadTxn = %v, want context.Canceled", err)
	}
	if got := r.cache.Core().ActiveTxns(); got != 0 {
		t.Fatalf("cancelled ReadTxn leaked %d txn records", got)
	}

	// A swallowed cancellation must not commit a partial read set either.
	rctx2, cancel2 := context.WithCancel(ctx)
	err = r.cache.ReadTxn(rctx2, func(tx *tcache.ReadTx) error {
		if _, err := tx.Get(rctx2, "k"); err != nil {
			return err
		}
		cancel2()
		return nil // fn ignores the cancellation
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("swallowed cancellation = %v, want context.Canceled", err)
	}
	if got := r.cache.Core().ActiveTxns(); got != 0 {
		t.Fatalf("swallowed cancellation leaked %d txn records", got)
	}
	if got := r.cache.Stats().TxnsCommitted; got != 0 {
		t.Fatalf("cancelled transaction committed (%d commits)", got)
	}
}

// TestUpdateCancelUnblocksLockWait wedges an update behind a held lock
// (db.KeyHold, reached through DB.Core) and cancels it: the call must return
// context.Canceled promptly and leave the lock queue clean.
func TestUpdateCancelUnblocksLockWait(t *testing.T) {
	d := tcache.OpenDB()
	defer d.Close()
	ctx := context.Background()
	if err := d.Update(ctx, func(tx *tcache.Tx) error {
		return tx.Set("k", tcache.Value("v0"))
	}); err != nil {
		t.Fatal(err)
	}

	hold, err := d.Core().HoldKey(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() {
		errc <- d.Update(wctx, func(tx *tcache.Tx) error {
			return tx.Set("k", tcache.Value("blocked"))
		})
	}()
	qctx, qcancel := context.WithTimeout(ctx, 5*time.Second)
	defer qcancel()
	if err := hold.Queued(qctx, 1); err != nil {
		t.Fatalf("the update never queued on the lock: %v", err)
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Update = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Update never unblocked from the lock wait")
	}

	hold.Release()
	// The queue is clean: a fresh update acquires the lock normally.
	if err := d.Update(ctx, func(tx *tcache.Tx) error {
		return tx.Set("k", tcache.Value("after"))
	}); err != nil {
		t.Fatalf("post-cancel update = %v", err)
	}
	if v, ok, _ := d.Get(ctx, "k"); !ok || string(v) != "after" {
		t.Fatalf("final value = %q, %v", v, ok)
	}
}

// TestUpdateConflictBackoffHonorsCtx drives the jittered-backoff retry
// loop with an optimistic update that can never commit — its closure
// commits a rival write to the key it read, so every attempt fails
// validation — then checks the ctx deadline stops the loop.
func TestUpdateConflictBackoffHonorsCtx(t *testing.T) {
	d := tcache.OpenDB()
	defer d.Close()
	c, err := tcache.NewCache(d)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := d.Update(ctx, func(tx *tcache.Tx) error {
		return tx.Set("k", tcache.Value("v0"))
	}); err != nil {
		t.Fatal(err)
	}

	wctx, cancel := context.WithTimeout(ctx, 150*time.Millisecond)
	defer cancel()
	attempts := 0
	start := time.Now()
	err = c.Update(wctx, func(tx *tcache.Tx) error {
		attempts++
		if _, _, err := tx.Get(wctx, "k"); err != nil {
			return err
		}
		if err := d.Update(ctx, func(rival *tcache.Tx) error {
			return rival.Set("k", tcache.Value(fmt.Sprintf("rival%d", attempts)))
		}); err != nil {
			return err
		}
		return tx.Set("k", tcache.Value("contender"))
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("conflict-looping update = %v, want context.DeadlineExceeded", err)
	}
	if attempts < 2 {
		t.Fatalf("%d attempt(s): the conflict was never retried", attempts)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("retry loop ignored ctx for %v", elapsed)
	}
}

// TestNewCacheDuplicateNameSurfaces covers the Subscribe bugfix through
// the public constructor, on both backends.
func TestNewCacheDuplicateNameSurfaces(t *testing.T) {
	t.Run("local", func(t *testing.T) {
		d := tcache.OpenDB()
		defer d.Close()
		c1, err := tcache.NewCache(d, tcache.WithName("edge"))
		if err != nil {
			t.Fatal(err)
		}
		defer c1.Close()
		if _, err := tcache.NewCache(d, tcache.WithName("edge")); !errors.Is(err, tcache.ErrDuplicateSubscriber) {
			t.Fatalf("duplicate WithName = %v, want ErrDuplicateSubscriber", err)
		}
		// Closing the first frees the name.
		c1.Close()
		c3, err := tcache.NewCache(d, tcache.WithName("edge"))
		if err != nil {
			t.Fatalf("reuse after Close = %v", err)
		}
		c3.Close()
	})

	t.Run("remote", func(t *testing.T) {
		r := newRemoteRig(t, tcache.WithName("edge"))
		ctx := context.Background()
		remote2, err := tcache.Dial(ctx, r.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer remote2.Close()
		if _, err := tcache.NewCache(remote2, tcache.WithName("edge")); err == nil {
			t.Fatal("duplicate remote subscriber name accepted")
		}
	})
}
