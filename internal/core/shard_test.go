package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"tcache/internal/kv"
)

// TestShardDefaults pins the Config.Shards defaulting rules: GOMAXPROCS
// stripes whether or not the cache is bounded (budgets are per shard, so
// a memory bound no longer collapses the cache onto one lock), and
// explicit values taken as given.
func TestShardDefaults(t *testing.T) {
	b := newMapBackend()
	want := runtime.GOMAXPROCS(0)
	unbounded := newCache(t, Config{Backend: b})
	if got := unbounded.Shards(); got != want {
		t.Fatalf("unbounded default Shards = %d, want GOMAXPROCS = %d", got, want)
	}
	byteBounded := newCache(t, Config{Backend: b, MaxBytes: 1 << 20})
	if got := byteBounded.Shards(); got != want {
		t.Fatalf("MaxBytes-bounded default Shards = %d, want GOMAXPROCS = %d", got, want)
	}
	explicit := newCache(t, Config{Backend: b, MaxBytes: 1 << 10, Shards: 5})
	if got := explicit.Shards(); got != 5 {
		t.Fatalf("explicit Shards = %d, want 5", got)
	}
}

// TestShardsOnePreservesSingleMutexSemantics runs a fixed operation script
// against an explicitly single-sharded cache and pins the exact metric
// outcome of the historical single-mutex implementation: exact global LRU
// eviction order and per-operation counter effects.
func TestShardsOnePreservesSingleMutexSemantics(t *testing.T) {
	b := newMapBackend()
	// Room for exactly two entries: values here are one or two bytes.
	c := newCache(t, Config{Backend: b, MaxBytes: int64(2 * entryCostFor("a", 2)), Shards: 1, Strategy: StrategyRetry})
	b.put("a", "1", 1)
	b.put("b", "2", 1)
	b.put("c", "3", 1)

	for _, k := range []kv.Key{"a", "b", "a", "c"} { // touch a; c evicts b (LRU)
		if _, err := c.Get(bgc, k); err != nil {
			t.Fatal(err)
		}
	}
	if cached(c, "b") || !cached(c, "a") || !cached(c, "c") {
		t.Fatal("global LRU order not preserved with Shards: 1")
	}

	// A transactional eq.2 violation resolved by RETRY, exactly as the
	// single-mutex cache handled it.
	b.put("b", "b2", 2)
	b.put("a", "a2", 2, dep("b", 2))
	c.Invalidate("a", kv.Version{Counter: 2})  // evict a; stale b stays… but b was LRU-evicted
	if _, err := c.Get(bgc, "b"); err != nil { // refill b@2
		t.Fatal(err)
	}
	if _, err := c.Read(bgc, 1, "a", false); err != nil { // miss → a@2, expects b@2
		t.Fatal(err)
	}
	if v, err := c.Read(bgc, 1, "b", true); err != nil || string(v) != "b2" {
		t.Fatalf("Read b = %q, %v", v, err)
	}

	m := c.Metrics()
	want := MetricsSnapshot{
		Reads:                7,
		Hits:                 2, // the a touch, then the b@2 txn read
		Misses:               5,
		TxnsStarted:          1,
		TxnsCommitted:        1,
		EvictionsLRU:         2, // c evicts b; the a@2 refill evicts c
		InvalidationsApplied: 1,
	}
	if m != want {
		t.Fatalf("metrics diverged from single-mutex semantics:\n got %+v\nwant %+v", m, want)
	}
}

// twoShardKeys returns two keys that hash to different entry shards of c,
// so tests exercise genuinely cross-shard read sets.
func twoShardKeys(t *testing.T, c *Cache) (kv.Key, kv.Key) {
	t.Helper()
	first := kv.Key("x0")
	for i := 1; i < 1000; i++ {
		k := kv.Key(fmt.Sprintf("x%d", i))
		if c.shardFor(k) != c.shardFor(first) {
			return first, k
		}
	}
	t.Fatal("could not find keys in distinct shards")
	return "", ""
}

// TestCrossShardEq1EvictsInOtherShard builds the canonical stale-B
// scenario with A and B in different shards: the eq.1 violation fires when
// reading A, and EVICT must drop B from the *other* shard (the
// release-then-evict path of handleViolation).
func TestCrossShardEq1EvictsInOtherShard(t *testing.T) {
	b := newMapBackend()
	c := newCache(t, Config{Backend: b, Shards: 8, Strategy: StrategyEvict})
	keyB, keyA := twoShardKeys(t, c)

	b.put(keyB, "b-old", 1)
	if _, err := c.Get(bgc, keyB); err != nil { // cache B@1
		t.Fatal(err)
	}
	b.put(keyB, "b-new", 2)
	b.put(keyA, "a-new", 2, dep(keyB, 2)) // invalidation for B lost

	if _, err := c.Read(bgc, 7, keyB, false); err != nil { // reads stale B@1
		t.Fatal(err)
	}
	_, err := c.Read(bgc, 7, keyA, false) // A@2 expects B@2 → eq.1
	var ie *InconsistencyError
	if !errors.As(err, &ie) || ie.Equation != 1 || ie.StaleKey != keyB {
		t.Fatalf("err = %v, want eq.1 violation on %q", err, keyB)
	}
	if cached(c, keyB) {
		t.Fatal("stale entry in the other shard was not evicted")
	}
	if got := c.Metrics().Evictions; got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
}

// TestCrossShardRetryResolvesEq2 pins RETRY semantics when the read set
// spans shards: reading A first records the expectation, the stale B read
// trips eq.2, and the in-shard evict-and-refetch resolves it.
func TestCrossShardRetryResolvesEq2(t *testing.T) {
	b := newMapBackend()
	c := newCache(t, Config{Backend: b, Shards: 8, Strategy: StrategyRetry})
	keyB, keyA := twoShardKeys(t, c)

	b.put(keyB, "b-old", 1)
	if _, err := c.Get(bgc, keyB); err != nil {
		t.Fatal(err)
	}
	b.put(keyB, "b-new", 2)
	b.put(keyA, "a-new", 2, dep(keyB, 2))

	if _, err := c.Read(bgc, 9, keyA, false); err != nil { // expects B@2
		t.Fatal(err)
	}
	v, err := c.Read(bgc, 9, keyB, true) // stale B@1 → eq.2 → retry heals
	if err != nil || string(v) != "b-new" {
		t.Fatalf("Read = %q, %v; want healed b-new", v, err)
	}
	m := c.Metrics()
	if m.Retries != 1 || m.RetriesResolved != 1 || m.TxnsCommitted != 1 {
		t.Fatalf("retry metrics = %+v", m)
	}
}

// TestCloseAbortsInFlightTxns pins the Close contract: every live
// transaction record is reported to completion hooks as an uncommitted
// transaction with its partial read set (the historical implementation
// silently discarded them, so monitors undercounted aborts).
func TestCloseAbortsInFlightTxns(t *testing.T) {
	b := newMapBackend()
	c, err := New(Config{Backend: b, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	b.put("x", "1", 1)
	b.put("y", "2", 1)

	var (
		mu    sync.Mutex
		comps []Completion
	)
	c.OnComplete(func(cp Completion) {
		mu.Lock()
		comps = append(comps, cp)
		mu.Unlock()
	})

	if _, err := c.Read(bgc, 1, "x", false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(bgc, 1, "y", false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(bgc, 2, "x", false); err != nil {
		t.Fatal(err)
	}

	c.Close()
	c.Close() // idempotent: must not re-report

	if len(comps) != 2 {
		t.Fatalf("completions = %d, want 2 (one per live txn)", len(comps))
	}
	byID := map[kv.TxnID]Completion{}
	for _, cp := range comps {
		if cp.Committed {
			t.Fatalf("txn %d reported committed on Close", cp.TxnID)
		}
		byID[cp.TxnID] = cp
	}
	if got := len(byID[1].Reads); got != 2 {
		t.Fatalf("txn 1 reads = %d, want its partial read set of 2", got)
	}
	if got := len(byID[2].Reads); got != 1 {
		t.Fatalf("txn 2 reads = %d, want 1", got)
	}
	if c.ActiveTxns() != 0 {
		t.Fatal("live records survived Close")
	}
	if got := c.Metrics().TxnsAbortedOnClose; got != 2 {
		t.Fatalf("TxnsAbortedOnClose = %d, want 2", got)
	}
}

// TestShardHammer drives one sharded cache from many goroutines — txn
// reads spanning shards, conflicting backend writes with partially lost
// invalidations, and a Close mid-flight — and checks the completion
// accounting stays exact: every started transaction finishes exactly once
// (committed, aborted, or aborted-on-close). Run under -race in CI.
func TestShardHammer(t *testing.T) {
	const (
		nKeys   = 100
		readers = 8
	)
	b := newBatchBackend()
	for i := 0; i < nKeys; i++ {
		b.put(hammerKey(i), "v1", 1)
	}
	c, err := New(Config{Backend: b, Shards: 8, Strategy: StrategyRetry})
	if err != nil {
		t.Fatal(err)
	}

	var (
		compMu  sync.Mutex
		perTxn  = map[kv.TxnID]int{}
		doubled []kv.TxnID
	)
	c.OnComplete(func(cp Completion) {
		compMu.Lock()
		perTxn[cp.TxnID]++
		if perTxn[cp.TxnID] > 1 {
			doubled = append(doubled, cp.TxnID)
		}
		compMu.Unlock()
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Readers: 5-key transactions whose read sets span shards — half of
	// them key by key, half as one ReadMulti batch.
	for g := 0; g < readers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys := make([]kv.Key, 5)
			for i := 0; ; i++ {
				id := kv.TxnID(g*1_000_000 + i + 1)
				for r := range keys {
					keys[r] = hammerKey((g*31 + i*7 + r*13) % nKeys)
				}
				var err error
				if g%2 == 0 {
					for r := 0; r < 5 && err == nil; r++ {
						_, err = c.Read(bgc, id, keys[r], r == 4)
					}
				} else {
					_, err = readTxn(c, id, keys)
				}
				switch {
				case errors.Is(err, ErrClosed):
					return
				case err != nil && !errors.Is(err, ErrTxnAborted): // aborted: txn finished; next txn
					t.Errorf("read: %v", err)
					return
				}
			}
		}()
	}

	// The edge's batch path shares the shards with them.
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys := make([]kv.Key, 5)
			for i := 0; ; i++ {
				for r := range keys {
					keys[r] = hammerKey((g*17 + i*3 + r*11) % nKeys)
				}
				lookups, err := c.GetItems(bgc, keys, kv.Version{Counter: uint64(i % 3)})
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil || len(lookups) != len(keys) {
					t.Errorf("GetItems = %d lookups, %v", len(lookups), err)
					return
				}
			}
		}()
	}

	// Writer: updates pairs (k, k+1) together but only invalidates k —
	// the lost-invalidation environment that makes eq.1/eq.2 fire.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := uint64(2); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			i := int(v) % nKeys
			j := (i + 1) % nKeys
			b.put(hammerKey(j), "w", v)
			b.put(hammerKey(i), "w", v, dep(hammerKey(j), v))
			c.Invalidate(hammerKey(i), kv.Version{Counter: v})
			runtime.Gosched()
		}
	}()

	// Let the system churn, then close mid-flight.
	deadline := time.After(2 * time.Second)
	for {
		compMu.Lock()
		n := len(perTxn)
		compMu.Unlock()
		if n >= 300 {
			break
		}
		select {
		case <-deadline:
			t.Log("hammer: slow box, closing early")
		case <-time.After(time.Millisecond):
			continue
		}
		break
	}
	c.Close()
	close(stop)
	wg.Wait()

	if _, err := c.Read(bgc, 999, hammerKey(0), false); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Read = %v, want ErrClosed", err)
	}
	if c.ActiveTxns() != 0 {
		t.Fatalf("ActiveTxns = %d after Close", c.ActiveTxns())
	}
	compMu.Lock()
	defer compMu.Unlock()
	if len(doubled) > 0 {
		t.Fatalf("%d transactions completed twice (e.g. %d)", len(doubled), doubled[0])
	}
	m := c.Metrics()
	finished := m.TxnsCommitted + m.TxnsAborted + m.TxnsAbortedOnClose
	if m.TxnsStarted != finished {
		t.Fatalf("accounting leak: started %d, finished %d (%+v)", m.TxnsStarted, finished, m)
	}
	if uint64(len(perTxn)) != finished {
		t.Fatalf("hook saw %d completions, metrics finished %d", len(perTxn), finished)
	}
	if m.Reads != m.Hits+m.Misses {
		t.Fatalf("Reads %d != Hits %d + Misses %d", m.Reads, m.Hits, m.Misses)
	}
}

func hammerKey(i int) kv.Key { return kv.Key(fmt.Sprintf("h%03d", i)) }
