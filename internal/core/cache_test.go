package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tcache/internal/clock"
	"tcache/internal/kv"
)

// bgc is the background context used by reads that don't exercise
// cancellation.
var bgc = context.Background()

// mapBackend is a trivial Backend for unit tests. Mutations are manual and
// deliberately do NOT notify the cache, modeling lost invalidations.
type mapBackend struct {
	mu    sync.Mutex
	items map[kv.Key]kv.Item
	gets  int
}

func newMapBackend() *mapBackend {
	return &mapBackend{items: make(map[kv.Key]kv.Item)}
}

func (b *mapBackend) ReadItem(ctx context.Context, key kv.Key) (kv.Item, bool, error) {
	if err := ctx.Err(); err != nil {
		return kv.Item{}, false, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gets++
	it, ok := b.items[key]
	if !ok {
		return kv.Item{}, false, nil
	}
	return it.Clone(), true, nil
}

func (b *mapBackend) put(key kv.Key, val string, ver uint64, deps ...kv.DepEntry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.items[key] = kv.Item{Value: kv.Value(val), Version: kv.Version{Counter: ver}, Deps: deps}
}

func (b *mapBackend) getCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.gets
}

func newCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// readTxn reads keys as one transaction id, the way tcache.Cache.ReadTxn
// runs one: Begin, Txn.ReadMulti, then Finish — committed if the read
// succeeded, aborted if it failed.
func readTxn(c *Cache, id kv.TxnID, keys []kv.Key) ([]kv.Value, error) {
	txn := c.Begin(id, time.Time{})
	vals, err := txn.ReadMulti(bgc, keys)
	if ferr := txn.Finish(err == nil); err == nil && ferr != nil {
		return nil, ferr
	}
	return vals, err
}

func dep(key kv.Key, ver uint64) kv.DepEntry {
	return kv.DepEntry{Key: key, Version: kv.Version{Counter: ver}}
}

// staleBCache builds the canonical inconsistency scenario: the backend has
// A@2 (depending on B@2) and B@2, but the cache holds a stale B@1 because
// the invalidation for B was lost.
func staleBCache(t *testing.T, strategy Strategy) (*Cache, *mapBackend) {
	t.Helper()
	b := newMapBackend()
	c := newCache(t, Config{Backend: b, Strategy: strategy})

	b.put("B", "b-old", 1)
	if _, err := c.Get(bgc, "B"); err != nil { // cache B@1
		t.Fatal(err)
	}
	// An update transaction writes A and B together; its invalidation for
	// B never reaches the cache.
	b.put("B", "b-new", 2)
	b.put("A", "a-new", 2, dep("B", 2))
	return c, b
}

func TestMissFillsFromBackendThenHits(t *testing.T) {
	b := newMapBackend()
	c := newCache(t, Config{Backend: b})
	b.put("k", "v", 1)

	val, err := c.Get(bgc, "k")
	if err != nil || string(val) != "v" {
		t.Fatalf("Get = %q, %v", val, err)
	}
	if _, err := c.Get(bgc, "k"); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.Hits != 1 || m.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", m.Hits, m.Misses)
	}
	if b.getCount() != 1 {
		t.Fatalf("backend gets = %d, want 1", b.getCount())
	}
}

func TestGetNotFound(t *testing.T) {
	c := newCache(t, Config{Backend: newMapBackend()})
	if _, err := c.Get(bgc, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestInvalidateSemantics(t *testing.T) {
	b := newMapBackend()
	c := newCache(t, Config{Backend: b})
	b.put("k", "v", 5)
	if _, err := c.Get(bgc, "k"); err != nil {
		t.Fatal(err)
	}

	c.Invalidate("k", kv.Version{Counter: 5}) // not newer: keep
	if !cached(c, "k") {
		t.Fatal("equal-version invalidation evicted entry")
	}
	c.Invalidate("k", kv.Version{Counter: 6}) // newer: evict
	if cached(c, "k") {
		t.Fatal("newer invalidation did not evict")
	}
	c.Invalidate("absent", kv.Version{Counter: 1}) // noop
	m := c.Metrics()
	if m.InvalidationsApplied != 1 || m.InvalidationsStale != 1 || m.InvalidationsNoop != 1 {
		t.Fatalf("invalidation counters = %+v", m)
	}
}

func TestEq2DetectedAndAborted(t *testing.T) {
	c, _ := staleBCache(t, StrategyAbort)

	// Read A first: its dependency list expects B@2.
	if _, err := c.Read(bgc, 1, "A", false); err != nil {
		t.Fatal(err)
	}
	// Reading the stale cached B@1 must violate equation 2.
	_, err := c.Read(bgc, 1, "B", true)
	if !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("err = %v, want ErrTxnAborted", err)
	}
	var ie *InconsistencyError
	if !errors.As(err, &ie) {
		t.Fatalf("err %T does not unwrap to InconsistencyError", err)
	}
	if ie.Equation != 2 || ie.Key != "B" || ie.StaleKey != "B" || ie.TxnID != 1 {
		t.Fatalf("violation = %+v", ie)
	}
	m := c.Metrics()
	if m.Detected != 1 || m.DetectedEq2 != 1 || m.TxnsAborted != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if c.ActiveTxns() != 0 {
		t.Fatal("aborted txn record not cleaned up")
	}
	// ABORT must not evict: collateral damage is limited to this txn.
	if !cached(c, "B") {
		t.Fatal("ABORT strategy evicted the stale entry")
	}
}

func TestEq1DetectedAndAborted(t *testing.T) {
	c, _ := staleBCache(t, StrategyAbort)

	// Read stale B first (it is returned to the client)...
	if val, err := c.Read(bgc, 1, "B", false); err != nil || string(val) != "b-old" {
		t.Fatalf("Read(B) = %q, %v", val, err)
	}
	// ...then A, whose dependency list exposes that B@1 was stale.
	_, err := c.Read(bgc, 1, "A", true)
	var ie *InconsistencyError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want InconsistencyError", err)
	}
	if ie.Equation != 1 || ie.Key != "A" || ie.StaleKey != "B" {
		t.Fatalf("violation = %+v", ie)
	}
	if got := c.Metrics().DetectedEq1; got != 1 {
		t.Fatalf("DetectedEq1 = %d", got)
	}
}

func TestEvictStrategyRemovesStaleEntry(t *testing.T) {
	c, _ := staleBCache(t, StrategyEvict)

	if _, err := c.Read(bgc, 1, "A", false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(bgc, 1, "B", true); !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("err = %v", err)
	}
	if cached(c, "B") {
		t.Fatal("EVICT did not remove the stale entry")
	}
	if got := c.Metrics().Evictions; got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
	// The next transaction re-fetches fresh B and commits.
	if _, err := c.Read(bgc, 2, "A", false); err != nil {
		t.Fatal(err)
	}
	if val, err := c.Read(bgc, 2, "B", true); err != nil || string(val) != "b-new" {
		t.Fatalf("retry txn: %q, %v", val, err)
	}
}

func TestRetryResolvesEq2(t *testing.T) {
	c, _ := staleBCache(t, StrategyRetry)

	if _, err := c.Read(bgc, 1, "A", false); err != nil {
		t.Fatal(err)
	}
	// The violating object is the one being read: RETRY serves it from
	// the backend and the transaction commits.
	val, err := c.Read(bgc, 1, "B", true)
	if err != nil {
		t.Fatalf("RETRY should have resolved: %v", err)
	}
	if string(val) != "b-new" {
		t.Fatalf("val = %q, want b-new", val)
	}
	m := c.Metrics()
	if m.Retries != 1 || m.RetriesResolved != 1 {
		t.Fatalf("retry counters = %+v", m)
	}
	if m.TxnsCommitted != 1 || m.TxnsAborted != 0 {
		t.Fatalf("txn counters = %+v", m)
	}
}

func TestRetryCannotFixEq1(t *testing.T) {
	c, _ := staleBCache(t, StrategyRetry)

	// Stale B already returned to the client: no read-through can help.
	if _, err := c.Read(bgc, 1, "B", false); err != nil {
		t.Fatal(err)
	}
	_, err := c.Read(bgc, 1, "A", true)
	var ie *InconsistencyError
	if !errors.As(err, &ie) || ie.Equation != 1 {
		t.Fatalf("err = %v, want eq.1 InconsistencyError", err)
	}
	// Like EVICT, the stale entry is removed.
	if cached(c, "B") {
		t.Fatal("RETRY(eq1) did not evict the stale entry")
	}
}

func TestConsistentTxnCommits(t *testing.T) {
	b := newMapBackend()
	c := newCache(t, Config{Backend: b})
	b.put("x", "1", 1)
	b.put("y", "2", 2, dep("x", 1))

	if _, err := c.Read(bgc, 7, "x", false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(bgc, 7, "y", true); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.TxnsCommitted != 1 || m.Detected != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestLastOpGarbageCollectsRecord(t *testing.T) {
	b := newMapBackend()
	c := newCache(t, Config{Backend: b})
	b.put("x", "1", 1)
	if _, err := c.Read(bgc, 1, "x", true); err != nil {
		t.Fatal(err)
	}
	if c.ActiveTxns() != 0 {
		t.Fatal("record survived lastOp")
	}
	// Reusing the ID starts a fresh transaction (per §III-B).
	if _, err := c.Read(bgc, 1, "x", false); err != nil {
		t.Fatal(err)
	}
	if c.ActiveTxns() != 1 {
		t.Fatal("reused ID did not start a new transaction")
	}
	if got := c.Metrics().TxnsStarted; got != 2 {
		t.Fatalf("TxnsStarted = %d, want 2", got)
	}
}

func TestExplicitAbort(t *testing.T) {
	b := newMapBackend()
	c := newCache(t, Config{Backend: b})
	b.put("x", "1", 1)
	txn := c.Begin(3, time.Time{})
	if _, err := txn.Read(bgc, "x"); err != nil {
		t.Fatal(err)
	}
	var comp Completion
	c.OnComplete(func(cp Completion) { comp = cp })
	txn.Finish(false)
	if comp.Committed || comp.TxnID != 3 || len(comp.Reads) != 1 {
		t.Fatalf("completion = %+v", comp)
	}
	c.Begin(99, time.Time{}).Finish(false) // never read: no report
	if got := c.Metrics().TxnsAborted; got != 1 {
		t.Fatalf("TxnsAborted = %d, want 1", got)
	}
}

func TestCompletionHookOnCommit(t *testing.T) {
	b := newMapBackend()
	c := newCache(t, Config{Backend: b})
	b.put("x", "1", 5)
	b.put("y", "2", 6)
	var comp Completion
	c.OnComplete(func(cp Completion) { comp = cp })
	if _, err := c.Read(bgc, 9, "x", false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(bgc, 9, "y", true); err != nil {
		t.Fatal(err)
	}
	if !comp.Committed || comp.TxnID != 9 {
		t.Fatalf("completion = %+v", comp)
	}
	if len(comp.Reads) != 2 || comp.Reads[0].Key != "x" || comp.Reads[0].Version.Counter != 5 {
		t.Fatalf("completion reads = %+v", comp.Reads)
	}
}

func TestRepeatedReadSameVersionOK(t *testing.T) {
	b := newMapBackend()
	c := newCache(t, Config{Backend: b})
	b.put("x", "1", 1)
	for i := 0; i < 3; i++ {
		if _, err := c.Read(bgc, 1, "x", false); err != nil {
			t.Fatal(err)
		}
	}
	var comp Completion
	c.OnComplete(func(cp Completion) { comp = cp })
	if _, err := c.Read(bgc, 1, "x", true); err != nil {
		t.Fatal(err)
	}
	if len(comp.Reads) != 1 {
		t.Fatalf("repeated reads recorded %d times", len(comp.Reads))
	}
}

func TestRepeatedReadNewerVersionDetected(t *testing.T) {
	b := newMapBackend()
	c := newCache(t, Config{Backend: b})
	b.put("x", "old", 1)
	if _, err := c.Read(bgc, 1, "x", false); err != nil {
		t.Fatal(err)
	}
	// The entry is invalidated and the backend moves on; a repeat read
	// inside the same transaction now returns a different snapshot.
	b.put("x", "new", 2)
	c.Invalidate("x", kv.Version{Counter: 2})
	_, err := c.Read(bgc, 1, "x", true)
	var ie *InconsistencyError
	if !errors.As(err, &ie) || ie.Equation != 1 || ie.StaleKey != "x" {
		t.Fatalf("err = %v, want eq.1 on x", err)
	}
}

func TestTTLExpiry(t *testing.T) {
	clk := clock.NewSimAtZero()
	b := newMapBackend()
	c := newCache(t, Config{Backend: b, Clock: clk, TTL: time.Second})
	b.put("x", "v1", 1)
	if _, err := c.Get(bgc, "x"); err != nil {
		t.Fatal(err)
	}
	clk.RunFor(500 * time.Millisecond)
	if _, err := c.Get(bgc, "x"); err != nil { // still fresh
		t.Fatal(err)
	}
	if got := c.Metrics().Hits; got != 1 {
		t.Fatalf("Hits = %d, want 1", got)
	}
	clk.RunFor(600 * time.Millisecond) // now 1.1s since fetch
	b.put("x", "v2", 2)
	val, err := c.Get(bgc, "x")
	if err != nil || string(val) != "v2" {
		t.Fatalf("post-TTL Get = %q, %v", val, err)
	}
	m := c.Metrics()
	if m.TTLExpiries != 1 || m.Misses != 2 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestCapacityLRUEviction: a budget of exactly two entries on one shard
// (exact LRU order is a per-shard property) evicts the least recently
// used of three.
func TestCapacityLRUEviction(t *testing.T) {
	b := newMapBackend()
	c := newCache(t, Config{Backend: b, MaxBytes: int64(2 * entryCostFor("a", 1)), Shards: 1})
	b.put("a", "1", 1)
	b.put("b", "2", 1)
	b.put("c", "3", 1)
	for _, k := range []kv.Key{"a", "b"} {
		if _, err := c.Get(bgc, k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Get(bgc, "a"); err != nil { // touch a: b becomes LRU
		t.Fatal(err)
	}
	if _, err := c.Get(bgc, "c"); err != nil { // evicts b
		t.Fatal(err)
	}
	if cached(c, "b") {
		t.Fatal("LRU victim b still cached")
	}
	if !cached(c, "a") || !cached(c, "c") {
		t.Fatal("wrong entry evicted")
	}
	if got := c.Metrics().EvictionsLRU; got != 1 {
		t.Fatalf("EvictionsLRU = %d, want 1", got)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestClosedCacheRejects(t *testing.T) {
	b := newMapBackend()
	c := newCache(t, Config{Backend: b})
	c.Close()
	if _, err := c.Get(bgc, "x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get = %v", err)
	}
	if _, err := c.Read(bgc, 1, "x", false); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read = %v", err)
	}
	c.Close() // idempotent
}

func TestNewRequiresBackend(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without backend succeeded")
	}
}

func TestNotFoundKeepsTxnAlive(t *testing.T) {
	b := newMapBackend()
	c := newCache(t, Config{Backend: b})
	b.put("x", "1", 1)
	txn := c.Begin(1, time.Time{})
	if _, err := txn.Read(bgc, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Read(bgc, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if c.ActiveTxns() != 1 {
		t.Fatal("not-found read killed the transaction")
	}
	if _, err := txn.Read(bgc, "x"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Finish(true); err != nil || c.Metrics().TxnsCommitted != 1 {
		t.Fatalf("Finish = %v, committed %d; want nil, 1", err, c.Metrics().TxnsCommitted)
	}
}

func TestStrategyStrings(t *testing.T) {
	if StrategyAbort.String() != "ABORT" || StrategyEvict.String() != "EVICT" || StrategyRetry.String() != "RETRY" {
		t.Fatal("bad strategy strings")
	}
	if Strategy(0).String() != "Strategy(0)" {
		t.Fatalf("Strategy(0) = %q", Strategy(0).String())
	}
}

func TestConcurrentReaders(t *testing.T) {
	b := newMapBackend()
	c := newCache(t, Config{Backend: b, Strategy: StrategyRetry})
	for i := 0; i < 50; i++ {
		b.put(kv.Key(fmt.Sprintf("k%d", i)), "v", uint64(i+1))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := kv.TxnID(g*1000 + i)
				for r := 0; r < 5; r++ {
					k := kv.Key(fmt.Sprintf("k%d", (g+i+r)%50))
					if _, err := c.Read(bgc, id, k, r == 4); err != nil &&
						!errors.Is(err, ErrTxnAborted) {
						t.Errorf("read: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	m := c.Metrics()
	if m.TxnsCommitted == 0 {
		t.Fatal("no transactions committed under concurrency")
	}
}

// TestValueCopyOnWrite pins the copy-on-write contract of the hit path:
// returned values are shared read-only slices (no per-read copy), a
// caller that wants to mutate clones first, and an update never mutates
// a previously served slice — it replaces the cached item wholesale.
func TestValueCopyOnWrite(t *testing.T) {
	b := newMapBackend()
	c := newCache(t, Config{Backend: b})
	b.put("x", "abc", 1)
	v1, err := c.Get(bgc, "x")
	if err != nil {
		t.Fatal(err)
	}
	// A caller that needs a private copy clones; the clone is isolated.
	mine := v1.Clone()
	mine[0] = 'Z'
	v2, err := c.Get(bgc, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(v2) != "abc" {
		t.Fatalf("clone mutation leaked into the cache: %q", v2)
	}
	// A newer version replaces the item; the previously served slice
	// still reads the old bytes (copy-on-write, not in-place mutation).
	b.put("x", "def", 2)
	c.Invalidate("x", kv.Version{Counter: 2})
	v3, err := c.Get(bgc, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(v3) != "def" {
		t.Fatalf("Get after update = %q, want %q", v3, "def")
	}
	if string(v2) != "abc" {
		t.Fatalf("served slice mutated in place by update: %q", v2)
	}
}

// TestLargeTxnSpillsToIndexes reads far past txnRecordSpill keys in one
// transaction, forcing the record's tables onto their map indexes, and
// verifies the §III-B checks still fire through them: a repeated read
// that comes back newer must still be caught as an eq.1 violation.
func TestLargeTxnSpillsToIndexes(t *testing.T) {
	b := newMapBackend()
	c := newCache(t, Config{Backend: b})
	const n = 3 * txnRecordSpill
	keys := make([]kv.Key, n)
	for i := range keys {
		keys[i] = kv.Key(fmt.Sprintf("spill-%03d", i))
		b.put(keys[i], "v1", 1)
	}
	const id = kv.TxnID(1)
	for _, k := range keys {
		if _, err := c.Read(bgc, id, k, false); err != nil {
			t.Fatalf("read %s: %v", k, err)
		}
	}
	// The first key moves forward; its cached copy is evicted, so the
	// repeat read returns a newer version than the record holds.
	b.put(keys[0], "v9", 9)
	c.Invalidate(keys[0], kv.Version{Counter: 9})
	if _, err := c.Read(bgc, id, keys[0], true); !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("repeat read of advanced key = %v, want ErrTxnAborted", err)
	}
}
