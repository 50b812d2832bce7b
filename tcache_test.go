package tcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// bg is the background context used by tests that don't exercise
// cancellation.
var bg = context.Background()

func openPair(t *testing.T, opts ...CacheOption) (*DB, *Cache) {
	t.Helper()
	d := OpenDB()
	t.Cleanup(func() { d.Close() })
	c, err := NewCache(d, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return d, c
}

func TestUpdateAndReadTxn(t *testing.T) {
	d, c := openPair(t)
	if err := d.Update(bg, func(tx *Tx) error {
		if err := tx.Set("train", Value("in stock")); err != nil {
			return err
		}
		return tx.Set("tracks", Value("in stock"))
	}); err != nil {
		t.Fatal(err)
	}

	var train, tracks Value
	err := c.ReadTxn(bg, func(tx *ReadTx) error {
		var err error
		if train, err = tx.Get(bg, "train"); err != nil {
			return err
		}
		tracks, err = tx.Get(bg, "tracks")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(train) != "in stock" || string(tracks) != "in stock" {
		t.Fatalf("reads = %q, %q", train, tracks)
	}
}

func TestUpdateRollsBackOnError(t *testing.T) {
	d, _ := openPair(t)
	sentinel := errors.New("boom")
	err := d.Update(bg, func(tx *Tx) error {
		if err := tx.Set("k", Value("v")); err != nil {
			return err
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if _, ok, _ := d.Get(bg, "k"); ok {
		t.Fatal("rolled-back write visible")
	}
}

func TestUpdateReadYourWrites(t *testing.T) {
	d, _ := openPair(t)
	if err := d.Update(bg, func(tx *Tx) error {
		if err := tx.Set("k", Value("v1")); err != nil {
			return err
		}
		val, found, err := tx.Get(bg, "k")
		if err != nil {
			return err
		}
		if !found || string(val) != "v1" {
			return fmt.Errorf("read-your-writes = %q, %v", val, found)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestReadTxnDetectsTornSnapshot(t *testing.T) {
	// Drop ALL invalidations: the cache can only learn about staleness
	// through dependency lists.
	d, c := openPair(t, WithStrategy(StrategyAbort), WithLossyLink(1.0, 0, 0, 1))
	seed := func(k Key) {
		if err := d.Update(bg, func(tx *Tx) error { return tx.Set(k, Value("v0")) }); err != nil {
			t.Fatal(err)
		}
	}
	seed("a")
	seed("b")
	// Cache b's initial version.
	if _, err := c.Get(bg, "b"); err != nil {
		t.Fatal(err)
	}
	// One update transaction rewrites both; the cache hears nothing.
	if err := d.Update(bg, func(tx *Tx) error {
		for _, k := range []Key{"a", "b"} {
			if _, _, err := tx.Get(bg, k); err != nil {
				return err
			}
			if err := tx.Set(k, Value("v1")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	err := c.ReadTxn(bg, func(tx *ReadTx) error {
		if _, err := tx.Get(bg, "a"); err != nil { // miss: fresh a with deps
			return err
		}
		_, err := tx.Get(bg, "b") // stale cached b
		return err
	})
	if !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("torn snapshot not detected: %v", err)
	}
}

func TestReadTxnRetryStrategyHeals(t *testing.T) {
	d, c := openPair(t, WithStrategy(StrategyRetry), WithLossyLink(1.0, 0, 0, 1))
	for _, k := range []Key{"a", "b"} {
		k := k
		if err := d.Update(bg, func(tx *Tx) error { return tx.Set(k, Value("v0")) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Get(bg, "b"); err != nil {
		t.Fatal(err)
	}
	if err := d.Update(bg, func(tx *Tx) error {
		for _, k := range []Key{"a", "b"} {
			if _, _, err := tx.Get(bg, k); err != nil {
				return err
			}
			if err := tx.Set(k, Value("v1")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var b Value
	err := c.ReadTxn(bg, func(tx *ReadTx) error {
		if _, err := tx.Get(bg, "a"); err != nil {
			return err
		}
		var err error
		b, err = tx.Get(bg, "b")
		return err
	})
	if err != nil {
		t.Fatalf("RETRY should have healed the read: %v", err)
	}
	if string(b) != "v1" {
		t.Fatalf("b = %q, want fresh v1", b)
	}
}

func TestReadTxnAbortedThenRetrySucceeds(t *testing.T) {
	d, c := openPair(t, WithStrategy(StrategyEvict), WithLossyLink(1.0, 0, 0, 1))
	for _, k := range []Key{"a", "b"} {
		k := k
		if err := d.Update(bg, func(tx *Tx) error { return tx.Set(k, Value("v0")) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Get(bg, "b"); err != nil {
		t.Fatal(err)
	}
	if err := d.Update(bg, func(tx *Tx) error {
		for _, k := range []Key{"a", "b"} {
			if _, _, err := tx.Get(bg, k); err != nil {
				return err
			}
			if err := tx.Set(k, Value("v1")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	read := func() error {
		return c.ReadTxn(bg, func(tx *ReadTx) error {
			if _, err := tx.Get(bg, "a"); err != nil {
				return err
			}
			_, err := tx.Get(bg, "b")
			return err
		})
	}
	if err := read(); !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("first attempt should abort: %v", err)
	}
	// EVICT removed the stale entry: the retry reads fresh data.
	if err := read(); err != nil {
		t.Fatalf("retry after EVICT failed: %v", err)
	}
}

func TestReadTxnUserErrorAborts(t *testing.T) {
	d, c := openPair(t)
	if err := d.Update(bg, func(tx *Tx) error { return tx.Set("k", Value("v")) }); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("user error")
	err := c.ReadTxn(bg, func(tx *ReadTx) error {
		if _, err := tx.Get(bg, "k"); err != nil {
			return err
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if got := c.Core().ActiveTxns(); got != 0 {
		t.Fatalf("leaked txn records: %d", got)
	}
}

func TestReadTxnGetAfterAbortFails(t *testing.T) {
	d, c := openPair(t, WithStrategy(StrategyAbort), WithLossyLink(1.0, 0, 0, 1))
	for _, k := range []Key{"a", "b"} {
		k := k
		if err := d.Update(bg, func(tx *Tx) error { return tx.Set(k, Value("v0")) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Get(bg, "b"); err != nil {
		t.Fatal(err)
	}
	if err := d.Update(bg, func(tx *Tx) error {
		for _, k := range []Key{"a", "b"} {
			if _, _, err := tx.Get(bg, k); err != nil {
				return err
			}
			if err := tx.Set(k, Value("v1")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var after error
	err := c.ReadTxn(bg, func(tx *ReadTx) error {
		tx.Get(bg, "a")
		tx.Get(bg, "b") // aborts
		_, after = tx.Get(bg, "a")
		return nil
	})
	if !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("ReadTxn = %v", err)
	}
	if !errors.Is(after, ErrTxnAborted) {
		t.Fatalf("Get after abort = %v", after)
	}
}

func TestCacheGetNotFound(t *testing.T) {
	_, c := openPair(t)
	if _, err := c.Get(bg, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentUpdatesRetryConflicts(t *testing.T) {
	d, _ := openPair(t)
	if err := d.Update(bg, func(tx *Tx) error {
		for i := 0; i < 4; i++ {
			if err := tx.Set(Key(fmt.Sprintf("acct%d", i)), Value{100}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				from := Key(fmt.Sprintf("acct%d", (g+i)%4))
				to := Key(fmt.Sprintf("acct%d", (g+i+1)%4))
				if err := d.Update(bg, func(tx *Tx) error {
					a, _, err := tx.Get(bg, from)
					if err != nil {
						return err
					}
					b, _, err := tx.Get(bg, to)
					if err != nil {
						return err
					}
					if err := tx.Set(from, Value{a[0] - 1}); err != nil {
						return err
					}
					return tx.Set(to, Value{b[0] + 1})
				}); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	for i := 0; i < 4; i++ {
		v, ok, _ := d.Get(bg, Key(fmt.Sprintf("acct%d", i)))
		if !ok {
			t.Fatal("account missing")
		}
		total += int(v[0])
	}
	if total != 400 {
		t.Fatalf("total = %d, want 400 (conflict retry broke serializability)", total)
	}
}

func TestStatsExposed(t *testing.T) {
	d, c := openPair(t)
	if err := d.Update(bg, func(tx *Tx) error { return tx.Set("k", Value("v")) }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(bg, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(bg, "k"); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMultipleCachesIndependent(t *testing.T) {
	d := OpenDB()
	defer d.Close()
	c1, err := NewCache(d, WithName("edge-1"))
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := NewCache(d, WithName("edge-2"))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	if err := d.Update(bg, func(tx *Tx) error { return tx.Set("k", Value("v1")) }); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Get(bg, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Get(bg, "k"); err != nil {
		t.Fatal(err)
	}
	// Reliable links: both caches see the invalidation.
	if err := d.Update(bg, func(tx *Tx) error { return tx.Set("k", Value("v2")) }); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		v1, _ := c1.Get(bg, "k")
		v2, _ := c2.Get(bg, "k")
		if string(v1) == "v2" && string(v2) == "v2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("caches stale: %q, %q", v1, v2)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTTLOptionExpiresEntries(t *testing.T) {
	d, c := openPair(t, WithTTL(10*time.Millisecond), WithLossyLink(1.0, 0, 0, 1))
	if err := d.Update(bg, func(tx *Tx) error { return tx.Set("k", Value("v1")) }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(bg, "k"); err != nil {
		t.Fatal(err)
	}
	if err := d.Update(bg, func(tx *Tx) error { return tx.Set("k", Value("v2")) }); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	v, err := c.Get(bg, "k")
	if err != nil || string(v) != "v2" {
		t.Fatalf("post-TTL read = %q, %v", v, err)
	}
}

func TestOpenDurableDB(t *testing.T) {
	dir := t.TempDir() + "/wal"
	d, err := OpenDurableDB(dir, WithFsync(false), WithSegmentSize(4<<10))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Update(bg, func(tx *Tx) error { return tx.Set("k", Value("v1")) }); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurableDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	v, ok, _ := d2.Get(bg, "k")
	if !ok || string(v) != "v1" {
		t.Fatalf("recovered = %q, %v", v, ok)
	}
	if err := d2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := d2.Update(bg, func(tx *Tx) error { return tx.Set("k2", Value("v2")) }); err != nil {
		t.Fatal(err)
	}
	// The snapshot plus the post-snapshot commit both survive a restart.
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, err := OpenDurableDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	for key, want := range map[Key]string{"k": "v1", "k2": "v2"} {
		v, ok, _ := d3.Get(bg, key)
		if !ok || string(v) != want {
			t.Fatalf("%s after snapshot+restart = %q, %v", key, v, ok)
		}
	}
}
