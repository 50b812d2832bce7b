package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"tcache/internal/evict"
	"tcache/internal/kv"
)

// entryCostFor computes the byte cost the cache should charge for a key
// with the given value length.
func entryCostFor(key kv.Key, valLen int) uint64 {
	return uint64(evict.EntryOverhead) + uint64(len(key)) + uint64(valLen)
}

// budgetEvictions sums the per-policy budget-eviction counters.
func budgetEvictions(m MetricsSnapshot) uint64 {
	return m.EvictionsLRU + m.EvictionsClock + m.EvictionsCost
}

// TestByteBudgetBoundsResidentBytes drives more data than the budget
// through every policy and checks the core invariant: resident bytes
// never exceed MaxBytes, and the per-policy eviction counter accounts
// every budget eviction.
func TestByteBudgetBoundsResidentBytes(t *testing.T) {
	for _, kind := range []evict.Kind{evict.LRU, evict.Clock, evict.Cost} {
		t.Run(kind.String(), func(t *testing.T) {
			b := newMapBackend()
			const budget = 4096
			c := newCache(t, Config{Backend: b, MaxBytes: budget, Policy: kind, Shards: 2})
			for i := 0; i < 64; i++ {
				key := kv.Key(fmt.Sprintf("key-%02d", i))
				b.put(key, strings.Repeat("v", 100), 1)
				if _, err := c.Get(bgc, key); err != nil {
					t.Fatal(err)
				}
				if got := c.ResidentBytes(); got > budget {
					t.Fatalf("resident bytes %d exceed budget %d after insert %d", got, budget, i)
				}
			}
			if got := c.Len(); got >= 64 {
				t.Fatalf("Len = %d, want evictions to have dropped entries", got)
			}
			m := c.Metrics()
			if budgetEvictions(m) == 0 {
				t.Fatal("no budget evictions recorded")
			}
			var policyCount uint64
			switch kind {
			case evict.Clock:
				policyCount = m.EvictionsClock
			case evict.Cost:
				policyCount = m.EvictionsCost
			default:
				policyCount = m.EvictionsLRU
			}
			if policyCount != budgetEvictions(m) {
				t.Fatalf("%s eviction counter = %d, want all %d budget evictions", kind, policyCount, budgetEvictions(m))
			}
		})
	}
}

// TestByteBudgetLRUOrder pins that byte-budget eviction on a single
// shard keeps exact LRU semantics: the least recently touched entry
// goes first.
func TestByteBudgetLRUOrder(t *testing.T) {
	b := newMapBackend()
	cost := entryCostFor("a", 10) // keys a/b/c are the same size
	c := newCache(t, Config{Backend: b, MaxBytes: int64(2 * cost), Shards: 1})
	for _, k := range []kv.Key{"a", "b", "c"} {
		b.put(k, strings.Repeat("v", 10), 1)
	}
	for _, k := range []kv.Key{"a", "b", "a", "c"} { // touch a; c must evict b
		if _, err := c.Get(bgc, k); err != nil {
			t.Fatal(err)
		}
	}
	if cached(c, "b") || !cached(c, "a") || !cached(c, "c") {
		t.Fatal("byte-budget LRU did not evict the least recently used entry")
	}
}

// TestGrowingValueTriggersEviction is the update-accounting regression
// (an in-place value replacement must adjust the shard's resident
// bytes): a value that grows across refetches eventually pushes the
// shard over budget and evicts its neighbours — with insert-only
// accounting the cache would blow straight through MaxBytes.
func TestGrowingValueTriggersEviction(t *testing.T) {
	b := newMapBackend()
	const budget = 1024
	c := newCache(t, Config{Backend: b, MaxBytes: budget, Shards: 1})

	keys := []kv.Key{"g", "n1", "n2", "n3"}
	for _, k := range keys {
		b.put(k, "tiny", 1)
		if _, err := c.Get(bgc, k); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := c.ResidentBytes(), entryCostFor("g", 4)+3*entryCostFor("n1", 4); got != want {
		t.Fatalf("resident after fill = %d, want exact sum %d", got, want)
	}

	// Grow g's value at the backend and force the in-place replacement
	// through the floor-refetch path (the cached g@1 is too old for a
	// caller that has observed g@2).
	grown := strings.Repeat("G", 700)
	b.put("g", grown, 2)
	item, ok, err := c.GetItem(bgc, "g", kv.Version{Counter: 2})
	if err != nil || !ok || len(item.Value) != 700 {
		t.Fatalf("GetItem after grow = %v, %v, %v", item, ok, err)
	}

	if got := c.ResidentBytes(); got > budget {
		t.Fatalf("resident bytes %d exceed budget %d after in-place growth", got, budget)
	}
	if !cached(c, "g") {
		t.Fatal("the grown entry itself was evicted despite fitting the budget")
	}
	if c.Len() >= len(keys) {
		t.Fatal("growing a value in place triggered no eviction")
	}
	if got := c.Metrics().EvictionsLRU; got == 0 {
		t.Fatal("no budget eviction recorded for the in-place growth")
	}
	// The survivors' accounting must be exact: resident equals the sum of
	// the entries actually present.
	var want uint64
	for _, k := range keys {
		if cached(c, k) {
			n := 4
			if k == "g" {
				n = 700
			}
			want += entryCostFor(k, n)
		}
	}
	if got := c.ResidentBytes(); got != want {
		t.Fatalf("resident = %d, want exact sum %d", got, want)
	}
}

// TestShrinkingValueRefundsBytes is the mirror regression: replacing a
// value with a smaller newer version must refund the difference.
func TestShrinkingValueRefundsBytes(t *testing.T) {
	b := newMapBackend()
	c := newCache(t, Config{Backend: b, MaxBytes: 4096, Shards: 1})
	b.put("k", strings.Repeat("x", 900), 1)
	if _, err := c.Get(bgc, "k"); err != nil {
		t.Fatal(err)
	}
	before := c.ResidentBytes()
	b.put("k", "small", 2)
	if _, _, err := c.GetItem(bgc, "k", kv.Version{Counter: 2}); err != nil {
		t.Fatal(err)
	}
	after := c.ResidentBytes()
	if want := entryCostFor("k", 5); after != want {
		t.Fatalf("resident after shrink = %d, want %d (was %d)", after, want, before)
	}
}

// TestUnboundedResidentBytesIsExact: without a budget the ledger still
// counts what the cache holds — after fills, in-place replacements and
// invalidations, ResidentBytes equals the sum of EntryOverhead + key +
// value over the entries present (the cache_resident_bytes gauge an
// unbounded tcached reports).
func TestUnboundedResidentBytesIsExact(t *testing.T) {
	b := newMapBackend()
	c := newCache(t, Config{Backend: b, Shards: 4})
	rng := rand.New(rand.NewSource(1))
	held := map[kv.Key]int{} // key → cached value length
	check := func(stage string) {
		t.Helper()
		var want uint64
		for k, n := range held {
			if !cached(c, k) {
				t.Fatalf("%s: %s not cached", stage, k)
			}
			want += entryCostFor(k, n)
		}
		if c.Len() != len(held) {
			t.Fatalf("%s: Len = %d, want %d", stage, c.Len(), len(held))
		}
		if got := c.ResidentBytes(); got != want {
			t.Fatalf("%s: ResidentBytes = %d, want %d", stage, got, want)
		}
	}

	keys := make([]kv.Key, 60)
	for i := range keys {
		keys[i] = kv.Key(fmt.Sprintf("key-%d", i))
		n := rng.Intn(300)
		b.put(keys[i], strings.Repeat("v", n), 1)
		if _, err := c.Get(bgc, keys[i]); err != nil {
			t.Fatal(err)
		}
		held[keys[i]] = n
	}
	check("fill")

	for _, k := range keys[:30] { // newer versions of another size, in place
		n := rng.Intn(300)
		b.put(k, strings.Repeat("w", n), 2)
		if _, _, err := c.GetItem(bgc, k, kv.Version{Counter: 2}); err != nil {
			t.Fatal(err)
		}
		held[k] = n
	}
	check("replace")

	for i, k := range keys[20:40] {
		c.Invalidate(k, kv.Version{Counter: 2}) // applied only to version-1 entries
		if i >= 10 {
			delete(held, k)
		}
	}
	c.Invalidate("never-cached", kv.Version{Counter: 9})
	check("invalidate")

	for _, k := range keys[30:40] { // refill what the invalidations removed
		if _, err := c.Get(bgc, k); err != nil {
			t.Fatal(err)
		}
		b.mu.Lock()
		held[k] = len(b.items[k].Value)
		b.mu.Unlock()
	}
	check("refill")
}

// TestAdmissionDoorkeeper pins the doorkeeper contract: a first-sighted
// key is served without being cached, the second sighting admits it,
// and from then on it hits.
func TestAdmissionDoorkeeper(t *testing.T) {
	b := newMapBackend()
	c := newCache(t, Config{Backend: b, MaxBytes: 1 << 20, Shards: 1, Admission: true})
	b.put("k", "v", 1)

	if v, err := c.Get(bgc, "k"); err != nil || string(v) != "v" {
		t.Fatalf("first Get = %q, %v", v, err)
	}
	if cached(c, "k") {
		t.Fatal("first sighting was cached despite the doorkeeper")
	}
	if got := c.Metrics().AdmissionRejects; got != 1 {
		t.Fatalf("AdmissionRejects = %d, want 1", got)
	}
	if v, err := c.Get(bgc, "k"); err != nil || string(v) != "v" {
		t.Fatalf("second Get = %q, %v", v, err)
	}
	if !cached(c, "k") {
		t.Fatal("second sighting was not admitted")
	}
	fetches := b.getCount()
	if v, err := c.Get(bgc, "k"); err != nil || string(v) != "v" {
		t.Fatalf("third Get = %q, %v", v, err)
	}
	if b.getCount() != fetches {
		t.Fatal("admitted entry did not serve as a warm hit")
	}
}

// TestAdmissionKeepsWorkingSetUnderScan checks the doorkeeper's reason
// to exist: a flood of one-hit-wonder keys must not displace an
// admitted working set.
func TestAdmissionKeepsWorkingSetUnderScan(t *testing.T) {
	b := newMapBackend()
	c := newCache(t, Config{Backend: b, MaxBytes: 8192, Shards: 1, Admission: true})
	hot := []kv.Key{"hot-a", "hot-b", "hot-c"}
	for _, k := range hot {
		b.put(k, "value", 1)
		for i := 0; i < 2; i++ { // second sighting admits
			if _, err := c.Get(bgc, k); err != nil {
				t.Fatal(err)
			}
		}
		if !cached(c, k) {
			t.Fatalf("hot key %q not admitted after two sightings", k)
		}
	}
	for i := 0; i < 500; i++ {
		k := kv.Key(fmt.Sprintf("scan-%d", i))
		b.put(k, strings.Repeat("s", 50), 1)
		if _, err := c.Get(bgc, k); err != nil {
			t.Fatal(err)
		}
		if i%25 == 0 { // the working set keeps working during the scan
			for _, h := range hot {
				if _, err := c.Get(bgc, h); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, k := range hot {
		if !cached(c, k) {
			t.Fatalf("scan flushed admitted hot key %q", k)
		}
	}
	m := c.Metrics()
	if m.AdmissionRejects < 400 {
		t.Fatalf("AdmissionRejects = %d, want the scan mostly rejected", m.AdmissionRejects)
	}
	// Without the doorkeeper all 500 scan keys would be inserted and
	// churn the budget (~460 evictions at this entry size); with it only
	// the filter's false positives ever get in.
	if m.EvictionsLRU > 120 {
		t.Fatalf("EvictionsLRU = %d, want the doorkeeper to absorb the scan", m.EvictionsLRU)
	}
}

// histBackend extends the test backend with an immutable write history:
// for every (key, version) it remembers the dependency list it was
// committed with, so completed transactions can be re-validated against
// the §III-B definitions from the outside.
type histBackend struct {
	mapBackend
	hist map[kv.Key]map[uint64][]kv.DepEntry
}

func newHistBackend() *histBackend {
	return &histBackend{
		mapBackend: mapBackend{items: make(map[kv.Key]kv.Item)},
		hist:       make(map[kv.Key]map[uint64][]kv.DepEntry),
	}
}

func (b *histBackend) putHist(key kv.Key, val string, ver uint64, deps ...kv.DepEntry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.items[key] = kv.Item{Value: kv.Value(val), Version: kv.Version{Counter: ver}, Deps: deps}
	if b.hist[key] == nil {
		b.hist[key] = make(map[uint64][]kv.DepEntry)
	}
	b.hist[key][ver] = deps
}

func (b *histBackend) depsOf(key kv.Key, ver uint64) []kv.DepEntry {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.hist[key][ver]
}

// TestEvictionConsistencyHammer races transactional readers holding
// deps on entries that a tiny byte budget is constantly evicting, a
// writer committing dependent pairs with half its invalidations lost,
// and asserts — per policy, under -race — that:
//
//  1. every committed transaction's read set satisfies eq.1/eq.2
//     against the backend's recorded dependency history (eviction must
//     never open a consistency hole);
//  2. completion accounting stays exact (started = committed + aborted,
//     one completion per transaction);
//  3. the shard byte ledgers remain exactly the sum of their residents
//     and within budget.
func TestEvictionConsistencyHammer(t *testing.T) {
	for _, kind := range []evict.Kind{evict.LRU, evict.Clock, evict.Cost} {
		t.Run(kind.String(), func(t *testing.T) {
			b := newHistBackend()
			const (
				nKeys   = 16
				budget  = 2048
				readers = 4
				txns    = 600
				writes  = 1500
			)
			keys := make([]kv.Key, nKeys)
			for i := range keys {
				keys[i] = kv.Key(fmt.Sprintf("h%02d", i))
				b.putHist(keys[i], "v0", 1)
			}
			c := newCache(t, Config{Backend: b, MaxBytes: budget, Policy: kind, Shards: 4, Strategy: StrategyRetry})

			var compMu sync.Mutex
			completions := make(map[kv.TxnID][]Completion)
			c.OnComplete(func(cp Completion) {
				compMu.Lock()
				completions[cp.TxnID] = append(completions[cp.TxnID], cp)
				compMu.Unlock()
			})

			var wg sync.WaitGroup
			stop := make(chan struct{})

			// Writer: commits dependent pairs (i and j at version v, each
			// depending on the other) with growing-and-shrinking values;
			// invalidations for j are lost half the time, so the cache must
			// catch the staleness via eq.1/eq.2 — even while eviction churns.
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(7))
				for v := uint64(2); v < 2+writes; v++ {
					i, j := keys[v%nKeys], keys[(v+5)%nKeys]
					if i == j {
						continue
					}
					val := strings.Repeat("w", 10+rng.Intn(150))
					b.putHist(j, val, v, kv.Dep(i, kv.Version{Counter: v}))
					b.putHist(i, val, v, kv.Dep(j, kv.Version{Counter: v}))
					c.Invalidate(i, kv.Version{Counter: v})
					if rng.Intn(2) == 0 {
						c.Invalidate(j, kv.Version{Counter: v})
					}
				}
				close(stop)
			}()

			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100 + r)))
					for i := 0; i < txns; i++ {
						id := kv.TxnID(uint64(r)*1_000_000 + uint64(i) + 1)
						for n := 0; n < 3; n++ {
							key := keys[rng.Intn(nKeys)]
							if _, err := c.Read(bgc, id, key, n == 2); err != nil {
								if !errors.Is(err, ErrTxnAborted) {
									t.Errorf("reader %d txn %d: %v", r, id, err)
								}
								break
							}
						}
					}
				}(r)
			}
			wg.Wait()
			<-stop

			// (3) ledger exactness and budget invariant, checked shard by
			// shard under the shard lock.
			var resident uint64
			for si, sh := range c.shards {
				sh.mu.Lock()
				var want uint64
				for _, e := range sh.entries {
					want += e.cost()
				}
				if got := sh.ev.Used(); got != want {
					t.Errorf("shard %d ledger = %d bytes, want exact sum %d", si, got, want)
				}
				if slice := sh.ev.Max(); sh.ev.Used() > slice {
					t.Errorf("shard %d over budget: %d > %d", si, sh.ev.Used(), slice)
				}
				resident += sh.ev.Used()
				sh.mu.Unlock()
			}
			if resident > budget {
				t.Errorf("total resident %d exceeds budget %d", resident, budget)
			}

			// (2) completion accounting: every transaction completed exactly
			// once, and the counters add up.
			m := c.Metrics()
			if m.TxnsStarted != m.TxnsCommitted+m.TxnsAborted+m.TxnsAbortedOnClose {
				t.Errorf("txn accounting: started %d != committed %d + aborted %d + closed %d",
					m.TxnsStarted, m.TxnsCommitted, m.TxnsAborted, m.TxnsAbortedOnClose)
			}
			compMu.Lock()
			defer compMu.Unlock()
			var committed int
			for id, cps := range completions {
				if len(cps) != 1 {
					t.Errorf("txn %d completed %d times", id, len(cps))
				}
				if cps[0].Committed {
					committed++
				}
			}
			if uint64(committed) != m.TxnsCommitted {
				t.Errorf("committed completions %d != TxnsCommitted %d", committed, m.TxnsCommitted)
			}

			// (1) serializability evidence: within a committed read set, if
			// the recorded dep list of one read expects a version of another
			// read's key, the other read must be at least that new — the
			// eq.1/eq.2 definitions, re-checked against ground truth. An
			// evicted dep must have behaved like a future cold read, never a
			// hole.
			for id, cps := range completions {
				cp := cps[0]
				if !cp.Committed {
					continue
				}
				readAt := make(map[kv.Key]uint64, len(cp.Reads))
				for _, rv := range cp.Reads {
					readAt[rv.Key] = rv.Version.Counter
				}
				for _, rv := range cp.Reads {
					for _, d := range b.depsOf(rv.Key, rv.Version.Counter) {
						got, ok := readAt[d.Key.Value()]
						if ok && got < d.Version.Counter {
							t.Errorf("txn %d committed inconsistently: read %s@%d whose deps expect %s@%d, but read %s@%d",
								id, rv.Key, rv.Version.Counter, d.Key.Value(), d.Version.Counter, d.Key.Value(), got)
						}
					}
				}
			}
		})
	}
}
