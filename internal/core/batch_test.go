package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"tcache/internal/clock"
	"tcache/internal/kv"
)

// batchBackend extends mapBackend with the BatchBackend interface and
// counts batch calls so tests can assert "one round trip".
type batchBackend struct {
	*mapBackend
	mu      sync.Mutex
	batches int
	fail    error
}

func newBatchBackend() *batchBackend {
	return &batchBackend{mapBackend: newMapBackend()}
}

func (b *batchBackend) ReadItems(ctx context.Context, keys []kv.Key) ([]kv.Lookup, error) {
	b.mu.Lock()
	b.batches++
	fail := b.fail
	b.mu.Unlock()
	if fail != nil {
		return nil, fail
	}
	out := make([]kv.Lookup, len(keys))
	for i, k := range keys {
		item, ok, err := b.ReadItem(ctx, k)
		if err != nil {
			return nil, err
		}
		out[i] = kv.Lookup{Item: item, Found: ok}
	}
	return out, nil
}

func (b *batchBackend) batchCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.batches
}

func TestReadMultiPrefetchesInOneBatch(t *testing.T) {
	b := newBatchBackend()
	c := newCache(t, Config{Backend: b})
	for _, k := range []kv.Key{"a", "b", "x"} {
		b.put(k, "v-"+string(k), 1)
	}

	vals, err := readTxn(c, 1, []kv.Key{"a", "b", "x"})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || string(vals[0]) != "v-a" || string(vals[2]) != "v-x" {
		t.Fatalf("vals = %q", vals)
	}
	if got := b.batchCount(); got != 1 {
		t.Fatalf("batch calls = %d, want 1", got)
	}
	// The prefetch fed the per-key reads: no single-key backend fetches.
	if got := b.getCount(); got != 3 {
		t.Fatalf("backend single reads (via batch) = %d, want 3", got)
	}
	m := c.Metrics()
	if m.BatchPrefetches != 1 || m.BatchPrefetchedKeys != 3 {
		t.Fatalf("batch metrics = %+v", m)
	}
	if m.TxnsCommitted != 1 {
		t.Fatalf("lastOp did not commit: %+v", m)
	}
	// Hit/miss accounting matches the per-key path: three backend-served
	// reads are three misses, however they were batched.
	if m.Hits != 0 || m.Misses != 3 {
		t.Fatalf("hits/misses = %d/%d, want 0/3", m.Hits, m.Misses)
	}

	// A second transaction over the same keys is pure hits.
	if _, err := readTxn(c, 2, []kv.Key{"a", "b", "x"}); err != nil {
		t.Fatal(err)
	}
	m = c.Metrics()
	if m.Hits != 3 || m.Misses != 3 {
		t.Fatalf("warm hits/misses = %d/%d, want 3/3", m.Hits, m.Misses)
	}
}

func TestReadMultiOnlyFetchesMisses(t *testing.T) {
	b := newBatchBackend()
	c := newCache(t, Config{Backend: b})
	b.put("hot", "v", 1)
	b.put("cold", "v", 1)
	if _, err := c.Get(bgc, "hot"); err != nil {
		t.Fatal(err)
	}
	if _, err := readTxn(c, 1, []kv.Key{"hot", "cold"}); err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics().BatchPrefetchedKeys; got != 1 {
		t.Fatalf("prefetched %d keys, want 1 (only the miss)", got)
	}
}

func TestReadMultiValidatesLikeRead(t *testing.T) {
	// The canonical stale-B scenario through the batch path: backend has
	// A@2 (dep B@2) and B@2, the cache a stale B@1. GetMulti must detect
	// the eq.2 violation exactly as sequential Reads do.
	b := newBatchBackend()
	c := newCache(t, Config{Backend: b, Strategy: StrategyAbort})
	b.put("B", "b-old", 1)
	if _, err := c.Get(bgc, "B"); err != nil {
		t.Fatal(err)
	}
	b.put("B", "b-new", 2)
	b.put("A", "a-new", 2, dep("B", 2))

	// Prefetch skips B (cached, stale, cache doesn't know) and fetches A;
	// reading A then B trips equation 2 on B.
	_, err := readTxn(c, 1, []kv.Key{"A", "B"})
	var ie *InconsistencyError
	if !errors.As(err, &ie) || ie.Equation != 2 || ie.StaleKey != "B" {
		t.Fatalf("ReadMulti = %v, want eq.2 violation on B", err)
	}
	if c.ActiveTxns() != 0 {
		t.Fatal("aborted txn record leaked")
	}
}

func TestReadMultiRetryHealsThroughBatch(t *testing.T) {
	b := newBatchBackend()
	c := newCache(t, Config{Backend: b, Strategy: StrategyRetry})
	b.put("B", "b-old", 1)
	if _, err := c.Get(bgc, "B"); err != nil {
		t.Fatal(err)
	}
	b.put("B", "b-new", 2)
	b.put("A", "a-new", 2, dep("B", 2))

	vals, err := readTxn(c, 1, []kv.Key{"A", "B"})
	if err != nil {
		t.Fatalf("RETRY should have healed: %v", err)
	}
	if string(vals[1]) != "b-new" {
		t.Fatalf("B = %q, want b-new", vals[1])
	}
}

func TestReadMultiSurvivesBatchFailure(t *testing.T) {
	// A failing batch endpoint degrades to per-key reads, not to an error.
	b := newBatchBackend()
	b.fail = errors.New("batch endpoint down")
	c := newCache(t, Config{Backend: b})
	b.put("a", "1", 1)
	b.put("b", "2", 1)
	vals, err := readTxn(c, 1, []kv.Key{"a", "b"})
	if err != nil || len(vals) != 2 {
		t.Fatalf("ReadMulti = %q, %v", vals, err)
	}
	if got := c.Metrics().BackendErrors; got != 1 {
		t.Fatalf("BackendErrors = %d, want 1", got)
	}
}

func TestReadMultiWithoutBatchBackend(t *testing.T) {
	b := newMapBackend() // no ReadItems
	c := newCache(t, Config{Backend: b})
	b.put("a", "1", 1)
	vals, err := readTxn(c, 1, []kv.Key{"a"})
	if err != nil || string(vals[0]) != "1" {
		t.Fatalf("ReadMulti = %q, %v", vals, err)
	}
}

func TestReadMultiEmptyLastOpCompletes(t *testing.T) {
	b := newBatchBackend()
	c := newCache(t, Config{Backend: b})
	b.put("x", "1", 1)
	txn := c.Begin(1, time.Time{})
	if _, err := txn.Read(bgc, "x"); err != nil {
		t.Fatal(err)
	}
	vals, err := txn.ReadMulti(bgc, nil)
	if err != nil || len(vals) != 0 {
		t.Fatalf("empty ReadMulti = %q, %v", vals, err)
	}
	if err := txn.Finish(true); err != nil || c.ActiveTxns() != 0 {
		t.Fatalf("Finish after an empty batch = %v, %d active; want nil, 0", err, c.ActiveTxns())
	}
	if got := c.Metrics().TxnsCommitted; got != 1 {
		t.Fatalf("TxnsCommitted = %d, want 1", got)
	}
}

func TestReadMultiRefreshesExpiredEntriesInOneBatch(t *testing.T) {
	// Static values: the backend returns the SAME version after the TTL
	// expires. The batch prefetch must still count as the refresh (restart
	// the TTL), not degrade into one extra round trip per key.
	clk := clock.NewSimAtZero()
	b := newBatchBackend()
	c := newCache(t, Config{Backend: b, Clock: clk, TTL: time.Second})
	keys := []kv.Key{"s1", "s2", "s3"}
	for _, k := range keys {
		b.put(k, "static", 1)
	}
	if _, err := readTxn(c, 1, keys); err != nil {
		t.Fatal(err)
	}
	clk.RunFor(2 * time.Second) // expire everything
	gets := b.getCount()
	if _, err := readTxn(c, 2, keys); err != nil {
		t.Fatal(err)
	}
	if got := b.getCount() - gets; got != 3 {
		t.Fatalf("backend reads after expiry = %d, want 3 (one batched fetch per key)", got)
	}
	if got := c.Metrics().BatchPrefetches; got != 2 {
		t.Fatalf("BatchPrefetches = %d, want 2", got)
	}
	// The prefetch restarted the TTL: a third pass is all hits, no fetch.
	gets = b.getCount()
	if _, err := readTxn(c, 3, keys); err != nil {
		t.Fatal(err)
	}
	if got := b.getCount() - gets; got != 0 {
		t.Fatalf("backend reads on warm pass = %d, want 0", got)
	}
}

func TestReadCancelledContext(t *testing.T) {
	b := newMapBackend()
	c := newCache(t, Config{Backend: b})
	b.put("x", "1", 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Read(ctx, 1, "x", false); !errors.Is(err, context.Canceled) {
		t.Fatalf("Read = %v, want context.Canceled", err)
	}
	if c.ActiveTxns() != 0 {
		t.Fatal("pre-cancelled read created a txn record")
	}
}

func TestCancelMidFetchLeavesRecoverableTxn(t *testing.T) {
	// The ctx dies during the backend fetch of the second read. The error
	// surfaces, the record survives (the caller owns the abort decision),
	// and Finish aborts it.
	b := newBatchBackend()
	c := newCache(t, Config{Backend: b})
	b.put("x", "1", 1)
	b.put("y", "2", 1)
	txn := c.Begin(7, time.Time{})
	if _, err := txn.Read(bgc, "x"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := txn.Read(ctx, "y"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Read = %v, want context.Canceled", err)
	}
	if c.ActiveTxns() != 1 {
		t.Fatal("cancelled read destroyed the txn record")
	}
	var comp Completion
	c.OnComplete(func(cp Completion) { comp = cp })
	txn.Finish(false)
	if c.ActiveTxns() != 0 {
		t.Fatal("abort after cancellation leaked the record")
	}
	if comp.Committed || len(comp.Reads) != 1 {
		t.Fatalf("completion = %+v", comp)
	}
}
