package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"tcache/internal/kv"
)

// Tests of the one-pass read (read.go, batch.go): a batch must be
// indistinguishable from the same keys read one at a time.

// diffSide is one of the caches of the differential test with the
// completions its hook saw and, on an owned-transaction side, its open
// transaction (nil until its next read).
type diffSide struct {
	name  string
	c     *Cache
	comps []Completion
	txn   *Txn
}

func newDiffSide(t *testing.T, name string, cfg Config, hooks bool) *diffSide {
	s := &diffSide{name: name, c: newCache(t, cfg)}
	if hooks {
		// Kept as delivered: a hook owns the reads it is handed.
		s.c.OnComplete(func(cp Completion) { s.comps = append(s.comps, cp) })
	}
	return s
}

// open returns s's open transaction, beginning it as id if there is none.
func (s *diffSide) open(id kv.TxnID) *Txn {
	if s.txn == nil {
		s.txn = s.c.Begin(id, time.Time{})
	}
	return s.txn
}

// finish ends s's open transaction, if it has one, committed or aborted.
func (s *diffSide) finish(commit bool) {
	if s.txn != nil {
		s.txn.Finish(commit)
		s.txn = nil
	}
}

// perKey is the reference: one Txn.Read per key, stopping at the first
// error. It reports how many keys it read.
func perKey(txn *Txn, keys []kv.Key) ([]kv.Value, int, error) {
	if len(keys) == 0 {
		return nil, 0, nil
	}
	vals := make([]kv.Value, len(keys))
	for i, k := range keys {
		v, err := txn.Read(bgc, k)
		if err != nil {
			return nil, i, err
		}
		vals[i] = v
	}
	return vals, len(keys), nil
}

// errShape reduces an error to what callers can observe of it.
func errShape(err error) string {
	var ie *InconsistencyError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &ie):
		return fmt.Sprintf("eq%d key=%s stale=%s txn=%d", ie.Equation, ie.Key, ie.StaleKey, ie.TxnID)
	case errors.Is(err, ErrNotFound):
		return "notfound"
	case errors.Is(err, ErrTxnAborted):
		return "aborted"
	}
	return err.Error()
}

// TestReadMultiMatchesSequentialReads is the seeded differential test of
// the one-pass read: over a small key space with interleaved backend
// writes (whose dependency lists make eq.1 and eq.2 fire), partially
// delivered invalidations, duplicate and absent keys and every strategy,
// a batch of keys read in one call produces the same values, errors,
// completions, resident keys and counter deltas at every step as the same
// keys read one Txn.Read at a time on a twin cache.
func TestReadMultiMatchesSequentialReads(t *testing.T) {
	var eq1At, eq2At [5]int // violations seen per batch position, all configs
	for _, strategy := range []Strategy{StrategyAbort, StrategyEvict, StrategyRetry} {
		for _, hooks := range []bool{true, false} {
			for seed := int64(1); seed <= 12; seed++ {
				name := fmt.Sprintf("%v/hooks=%v/seed%d", strategy, hooks, seed)
				runDifferential(t, name, Config{Strategy: strategy, Shards: 3}, hooks, seed, nil, &eq1At, &eq2At)
			}
		}
	}
	for pos := 0; pos < 5; pos++ {
		if pos > 0 && eq1At[pos] == 0 || eq2At[pos] == 0 {
			t.Errorf("batch position %d never tripped eq.1 (%d) or eq.2 (%d): the test lost its coverage", pos, eq1At[pos], eq2At[pos])
		}
	}
}

// runDifferential drives one seeded history through the sides. The
// reference reads per key through an owned transaction (Begin, Txn.Read,
// Finish), stopping at the first error; the batch side reads the same
// keys with Txn.ReadMulti. Both end their transaction where lastOp would,
// and abandon or abort it where the history does. With batchHash set,
// the batch side hashes its keys with it instead of hashKey.
func runDifferential(t *testing.T, name string, cfg Config, hooks bool, seed int64, batchHash func(kv.Key) uint64, eq1At, eq2At *[5]int) {
	rng := rand.New(rand.NewSource(seed))
	b := newBatchBackend()
	cfg.Backend = b
	ref, owned := newDiffSide(t, "Txn.Read", cfg, hooks), newDiffSide(t, "Txn.ReadMulti", cfg, hooks)
	if batchHash != nil {
		owned.c.hash = batchHash // before the first insert
	}
	sides := []*diffSide{ref, owned}
	keys := []kv.Key{"a", "b", "c", "d", "e", "f", "ghost"} // ghost is never written
	version := uint64(0)
	current := map[kv.Key]uint64{}
	write := func(k kv.Key, deps ...kv.DepEntry) {
		b.put(k, fmt.Sprintf("%s@%d", k, version), version, deps...)
		current[k] = version
	}
	for _, k := range keys[:6] {
		version++
		write(k)
	}
	id := kv.TxnID(1)
	for step := 0; step < 120; step++ {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s step %d: %s", name, step, fmt.Sprintf(format, args...))
		}
		if rng.Intn(3) == 0 {
			// One update transaction writes two keys, each depending on
			// the other and on a third; each invalidation is lost with
			// probability 1/2 — on every cache alike.
			version++
			x, y, z := keys[rng.Intn(6)], keys[rng.Intn(6)], keys[rng.Intn(6)]
			write(x, dep(y, version), dep(z, current[z]))
			write(y, dep(x, version), dep(z, current[z]))
			for _, k := range []kv.Key{x, y} {
				if rng.Intn(2) == 0 {
					for _, s := range sides {
						s.c.Invalidate(k, kv.Version{Counter: version})
					}
				}
			}
			continue
		}
		read := make([]kv.Key, rng.Intn(6))
		for i := range read {
			read[i] = keys[rng.Intn(len(keys))]
			if rng.Intn(40) == 0 {
				read[i] = "ghost"
			}
		}
		lastOp := rng.Intn(2) == 0
		before := make([]MetricsSnapshot, len(sides))
		for i, s := range sides {
			before[i] = s.c.Metrics()
		}
		wantVals, stopped, wantErr := perKey(ref.open(id), read)
		ownVals, ownErr := owned.open(id).ReadMulti(bgc, read)
		if lastOp && (wantErr == nil || stopped == len(read)-1) {
			// lastOp's rule: the transaction ends with this read, as
			// committed — unless the read aborted it (ending it already)
			// or stopped short of its last key.
			ref.finish(true)
			owned.finish(true)
		}
		if errShape(ownErr) != errShape(wantErr) {
			fail("Txn.ReadMulti(%v) = %v, Txn.Read per key = %v", read, ownErr, wantErr)
		}
		if !reflect.DeepEqual(ownVals, wantVals) {
			fail("Txn.ReadMulti(%v) values %q, Txn.Read per key %q", read, ownVals, wantVals)
		}
		var ie *InconsistencyError
		// The one legitimate difference: the eq.1 violator is also a later
		// key of this batch, so the batch may have refetched it before the
		// violation was found — nothing stale is left for EVICT/RETRY to
		// evict.
		refetched := errors.As(wantErr, &ie) && ie.Equation == 1 && slices.Contains(read[stopped+1:], ie.StaleKey)
		deltas := make([]MetricsSnapshot, len(sides))
		for i, s := range sides {
			if !reflect.DeepEqual(s.comps, ref.comps) {
				fail("%s completions diverged after %v:\n got  %+v\n want %+v", s.name, read, s.comps, ref.comps)
			}
			d := metricsDelta(s.c.Metrics(), before[i])
			if d.Reads != d.Hits+d.Misses {
				fail("%s: Reads %d != Hits %d + Misses %d", s.name, d.Reads, d.Hits, d.Misses)
			}
			// Only a batch issues batch backend calls.
			d.BatchPrefetches, d.BatchPrefetchedKeys = 0, 0
			if refetched {
				d.Evictions = 0
			}
			if deltas[i] = d; d != deltas[0] {
				fail("%s counter deltas diverged after %v (err %v):\n got  %+v\n want %+v", s.name, read, wantErr, d, deltas[0])
			}
		}
		if ie != nil {
			if ie.Equation == 1 {
				eq1At[stopped]++
			} else {
				eq2At[stopped]++
			}
		}
		if wantErr != nil {
			// The batch looked up (and filled) the keys behind the failing
			// one before validating; the single reads never reached them. Bring every cache to the same contents before
			// going on.
			for _, k := range read[stopped:] {
				for _, s := range sides {
					s.c.Get(bgc, k)
				}
			}
		}
		for _, k := range keys {
			for _, s := range sides {
				if got, want := cached(s.c, k), cached(ref.c, k); got != want {
					fail("after %v (err %v): Contains(%s) %s %v, reference %v", read, wantErr, k, s.name, got, want)
				}
			}
		}
		for _, s := range sides {
			if got, want := s.c.ActiveTxns(), ref.c.ActiveTxns(); got != want {
				fail("ActiveTxns %s %d, reference %d", s.name, got, want)
			}
		}
		if lastOp || errors.Is(wantErr, ErrTxnAborted) || rng.Intn(4) == 0 {
			if rng.Intn(2) == 0 { // leaves no record behind either way
				ref.finish(false)
				owned.finish(false)
			}
			// Otherwise an open transaction is abandoned, on every side.
			ref.txn, owned.txn = nil, nil
			id++
		}
	}
}

// metricsDelta returns after - before, field by field.
func metricsDelta(after, before MetricsSnapshot) MetricsSnapshot {
	a, b := reflect.ValueOf(&after).Elem(), reflect.ValueOf(before)
	for i := 0; i < a.NumField(); i++ {
		a.Field(i).SetUint(a.Field(i).Uint() - b.Field(i).Uint())
	}
	return after
}

// TestReadsEqualHitsPlusMisses pins the accounting identity on every read
// path: single, batch, floor refetch, TTL expiry, admission-declined,
// RETRY's refetch and a failed fetch (counted once).
func TestReadsEqualHitsPlusMisses(t *testing.T) {
	check := func(t *testing.T, c *Cache, reads, hits uint64) {
		t.Helper()
		m := c.Metrics()
		if m.Reads != reads || m.Hits != hits || m.Misses != reads-hits {
			t.Fatalf("reads/hits/misses = %d/%d/%d, want %d/%d/%d", m.Reads, m.Hits, m.Misses, reads, hits, reads-hits)
		}
	}
	t.Run("single and batch", func(t *testing.T) {
		b := newBatchBackend()
		c := newCache(t, Config{Backend: b})
		b.put("a", "1", 1)
		b.put("b", "1", 1)
		c.Read(bgc, 1, "a", true)                                // miss
		readTxn(c, 2, []kv.Key{"a", "b", "b"})                   // hit, miss, hit (served by b's fill)
		c.GetItems(bgc, []kv.Key{"a", "zz", "zz"}, kv.Version{}) // hit, miss, miss (never found)
		check(t, c, 7, 3)
	})
	t.Run("floor refetch", func(t *testing.T) {
		b := newBatchBackend()
		c := newCache(t, Config{Backend: b})
		b.put("a", "1", 1)
		floor := func(n uint64) kv.Version { return kv.Version{Counter: n} }
		c.Get(bgc, "a")                               // miss
		c.GetItem(bgc, "a", floor(5))                 // behind the floor: refetched, same version, confirmed under 5
		c.GetItems(bgc, []kv.Key{"a", "a"}, floor(5)) // hit, hit: one fetch per floor raise, not per read
		c.GetItem(bgc, "a", floor(3))                 // hit: a lower floor is covered
		c.GetItem(bgc, "a", floor(9))                 // the floor rose: refetched once more
		c.GetItem(bgc, "a", floor(9))                 // hit
		check(t, c, 7, 4)
		if got := c.Metrics().FloorRefetches; got != 2 {
			t.Fatalf("FloorRefetches = %d, want 2", got)
		}
		// The mark goes with the entry: a rewritten key is fetched again
		// under the same floor, and served whatever its version.
		b.put("a", "2", 2)
		c.Invalidate("a", floor(2))
		if item, ok, err := c.GetItem(bgc, "a", floor(9)); err != nil || !ok || item.Version != floor(2) {
			t.Fatalf("read after invalidation = %v, %v, %v", item.Version, ok, err)
		}
		check(t, c, 8, 4)
	})
	t.Run("admission declined", func(t *testing.T) {
		b := newBatchBackend()
		c := newCache(t, Config{Backend: b, MaxBytes: 1 << 20, Admission: true, Shards: 1})
		b.put("a", "1", 1)
		readTxn(c, 1, []kv.Key{"a", "a"}) // declined, then admitted: two misses
		c.Get(bgc, "a")
		check(t, c, 3, 1)
		if got := c.Metrics().AdmissionRejects; got != 1 {
			t.Fatalf("AdmissionRejects = %d, want 1", got)
		}
	})
	t.Run("retry refetch", func(t *testing.T) {
		c, _ := staleBCache(t, StrategyRetry)
		if _, err := readTxn(c, 1, []kv.Key{"A", "B"}); err != nil {
			t.Fatal(err)
		}
		m := c.Metrics()
		if m.Retries != 1 || m.Reads != m.Hits+m.Misses {
			t.Fatalf("retries %d, reads %d, hits %d, misses %d", m.Retries, m.Reads, m.Hits, m.Misses)
		}
	})
	t.Run("failed fetch", func(t *testing.T) {
		b := newMapBackend()
		c := newCache(t, Config{Backend: failingBackend{b}})
		txn := c.Begin(1, time.Time{})
		if _, err := txn.ReadMulti(bgc, []kv.Key{"a", "b"}); err == nil {
			t.Fatal("ReadMulti over a dead backend succeeded")
		}
		check(t, c, 1, 0) // stopped at the first key
		if got := c.Metrics().BackendErrors; got != 1 {
			t.Fatalf("BackendErrors = %d, want 1", got)
		}
		if c.ActiveTxns() != 1 {
			t.Fatal("a failed fetch must leave the transaction to its caller")
		}
		txn.Finish(false)
	})
}

// failingBackend fails every read.
type failingBackend struct{ *mapBackend }

func (failingBackend) ReadItem(context.Context, kv.Key) (kv.Item, bool, error) {
	return kv.Item{}, false, errors.New("backend down")
}

// TestReadMultiCancelledDuringBatchFetch: a ctx cancelled while the batch
// request is in flight surfaces as ctx.Err() — not as a backend error
// followed by per-key failures — and the transaction survives.
func TestReadMultiCancelledDuringBatchFetch(t *testing.T) {
	b := newBatchBackend()
	c := newCache(t, Config{Backend: cancellingBackend{b}})
	b.put("a", "1", 1)
	b.put("b", "1", 1)
	ctx, cancel := context.WithCancel(context.Background())
	txn := c.Begin(1, time.Time{})
	defer txn.Finish(false)
	_, err := txn.ReadMulti(context.WithValue(ctx, cancelKey{}, cancel), []kv.Key{"a", "b"})
	if err != context.Canceled {
		t.Fatalf("ReadMulti = %v, want context.Canceled itself", err)
	}
	if m := c.Metrics(); m.BackendErrors != 0 || b.getCount() != 0 {
		t.Fatalf("BackendErrors = %d, per-key backend reads = %d; want 0/0", m.BackendErrors, b.getCount())
	}
	if c.ActiveTxns() != 1 {
		t.Fatal("cancelled batch destroyed the txn record")
	}
}

type cancelKey struct{}

// cancellingBackend cancels the request's ctx inside ReadItems.
type cancellingBackend struct{ *batchBackend }

func (cancellingBackend) ReadItems(ctx context.Context, keys []kv.Key) ([]kv.Lookup, error) {
	ctx.Value(cancelKey{}).(context.CancelFunc)()
	return nil, ctx.Err()
}

// TestReadMultiLargeBatchAndDuplicates: a batch beyond txnRecordSpill
// (and beyond the inline scratch), with every key repeated, reads like
// the sequence of single reads — one fetch per distinct key.
func TestReadMultiLargeBatchAndDuplicates(t *testing.T) {
	b := newBatchBackend()
	c := newCache(t, Config{Backend: b, Shards: 4})
	var keys []kv.Key
	for i := 0; i < 2*txnRecordSpill+3; i++ {
		k := kv.Key(fmt.Sprintf("k%03d", i))
		b.put(k, string(k), 1)
		keys = append(keys, k, k)
	}
	var comp Completion
	c.OnComplete(func(cp Completion) { comp = cp })
	vals, err := readTxn(c, 1, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if string(v) != string(keys[i]) {
			t.Fatalf("vals[%d] = %q, want %q", i, v, keys[i])
		}
	}
	distinct := uint64(len(keys) / 2)
	m := c.Metrics()
	if m.Reads != 2*distinct || m.Misses != distinct || m.Hits != distinct || m.BatchPrefetches != 1 || m.BatchPrefetchedKeys != distinct {
		t.Fatalf("metrics = %+v, want %d misses and %d hits from one batch call", m, distinct, distinct)
	}
	if !comp.Committed || uint64(len(comp.Reads)) != distinct {
		t.Fatalf("completion = committed %v with %d reads, want %d distinct", comp.Committed, len(comp.Reads), distinct)
	}
}
