// Micro-benchmarks of the protocol's hot paths. These are for measuring
// while you work: the numbers of record are bench/'s rows, what these
// paths may allocate is gated by alloc_test.go, which shares the set-up
// helpers below, and the paper's figures are counted, not timed — they
// are internal/experiment's golden tables.
package tcache

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/kv"
	"tcache/internal/monitor"
	"tcache/internal/workload"
)

// --- Protocol micro-benchmarks ------------------------------------------

// bgb is the background context used by benchmark reads.
var bgb = context.Background()

// benchKeys returns the first n object keys, built once outside the timed
// loop: workload.ObjectKey is a Sprintf and an allocation, which the
// hit-path benchmarks must not time.
func benchKeys(n int) []kv.Key {
	keys := make([]kv.Key, n)
	for i := range keys {
		keys[i] = workload.ObjectKey(i)
	}
	return keys
}

// evictAll is an invalidation version above anything committed: it
// evicts whatever the cache holds for the key.
var evictAll = kv.Version{Counter: ^uint64(0) - 1}

// BenchmarkCacheHitRead measures the §III-B validated read on a warm
// cache (the latency-critical path: one client-to-cache round trip).
func BenchmarkCacheHitRead(b *testing.B) {
	d := db.Open(db.Config{DepBound: 5})
	defer d.Close()
	seedCluster(b, d, 5)
	cache, err := core.New(core.Config{Backend: d, Strategy: core.StrategyRetry})
	if err != nil {
		b.Fatal(err)
	}
	defer cache.Close()
	warm(b, cache, 5)
	keys := benchKeys(5)

	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := kv.TxnID(i + 1)
		for r, key := range keys {
			if _, err := cache.Read(bgb, id, key, r == 4); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(5, "reads/txn")
}

// BenchmarkCachePlainGet measures the consistency-unaware hit path as a
// baseline for the transactional overhead.
func BenchmarkCachePlainGet(b *testing.B) {
	d := db.Open(db.Config{DepBound: 5})
	defer d.Close()
	seedCluster(b, d, 5)
	cache, err := core.New(core.Config{Backend: d})
	if err != nil {
		b.Fatal(err)
	}
	defer cache.Close()
	warm(b, cache, 5)
	keys := benchKeys(5)

	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Get(bgb, keys[i%5]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheHitReadParallel measures the validated read hot path under
// concurrent clients (b.RunParallel), the workload the lock-striped shards
// target: each transaction reads 5 warm keys, transactions run from many
// goroutines at once. Compare -cpu 1 vs -cpu N to see the scaling; the
// historical single-mutex cache degraded as cpus grew.
func BenchmarkCacheHitReadParallel(b *testing.B) {
	const nKeys = 64
	d := db.Open(db.Config{DepBound: 5})
	defer d.Close()
	seedCluster(b, d, nKeys)
	cache, err := core.New(core.Config{Backend: d, Strategy: core.StrategyRetry})
	if err != nil {
		b.Fatal(err)
	}
	defer cache.Close()
	warm(b, cache, nKeys)
	keys := benchKeys(nKeys)

	var nextID atomic.Uint64
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := nextID.Add(1)
			base := int(id*5) % nKeys
			for r := 0; r < 5; r++ {
				if _, err := cache.Read(bgb, kv.TxnID(id), keys[(base+r)%nKeys], r == 4); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
	b.ReportMetric(5, "reads/txn")
}

// BenchmarkCachePlainGetParallel measures the consistency-unaware hit path
// under concurrent clients, as the baseline for the transactional overhead
// of BenchmarkCacheHitReadParallel.
func BenchmarkCachePlainGetParallel(b *testing.B) {
	const nKeys = 64
	d := db.Open(db.Config{DepBound: 5})
	defer d.Close()
	seedCluster(b, d, nKeys)
	cache, err := core.New(core.Config{Backend: d})
	if err != nil {
		b.Fatal(err)
	}
	defer cache.Close()
	warm(b, cache, nKeys)
	keys := benchKeys(nKeys)

	var offset atomic.Uint64
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := int(offset.Add(17))
		for pb.Next() {
			i++
			if _, err := cache.Get(bgb, keys[i%nKeys]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// benchReadTxnCache is a warm public-API cache with telemetry on over
// nKeys objects — the configuration the edge_hit workload of bench/ runs.
func benchReadTxnCache(b testing.TB, nKeys int, opts ...DBOption) (*Cache, []Key) {
	d := OpenDB(opts...)
	b.Cleanup(func() { d.Close() })
	seedCluster(b, d.Core(), nKeys)
	cache, err := NewCache(d, WithTelemetry(NewTelemetry()))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cache.Close)
	warm(b, cache.Core(), nKeys)
	return cache, benchKeys(nKeys)
}

// BenchmarkCacheReadTxnGetMulti measures the public warm read
// transaction, ReadTxn{GetMulti(5)} with telemetry on: one pass over the
// touched shards, one validation under the stripe, one Commit.
func BenchmarkCacheReadTxnGetMulti(b *testing.B) {
	cache, keys := benchReadTxnCache(b, 5)
	read := func(tx *ReadTx) error {
		_, err := tx.GetMulti(bgb, keys...)
		return err
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := cache.ReadTxn(bgb, read); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(5, "reads/txn")
}

// BenchmarkNominalOverhead puts a number on the paper's "nominal
// overhead": the warm ReadTxn{GetMulti(5)} minus a GetItems of the same
// five keys — everything a transaction adds to a plain multi-key read
// (its record, the §III-B checks over each item's dependency list, the
// commit, its histogram) — at dependency-list bounds 0, 3 and 5. The two
// reads alternate in blocks so a noisy minute lands on both. Reported,
// not gated: it is a timing.
func BenchmarkNominalOverhead(b *testing.B) {
	for _, k := range []int{0, 3, 5} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			cache, keys := benchReadTxnCache(b, 5, WithDepListBound(k))
			if item, _, _ := cache.Core().GetItem(bgb, keys[0], kv.Version{}); len(item.Deps) != min(k, 4) {
				b.Fatalf("k=%d: %s carries %d dependencies, want %d", k, keys[0], len(item.Deps), min(k, 4))
			}
			read := func(tx *ReadTx) error {
				_, err := tx.GetMulti(bgb, keys...)
				return err
			}
			var txn, plain time.Duration
			b.ResetTimer()
			for done := 0; done < b.N; done += 256 {
				n := min(256, b.N-done)
				t0 := time.Now()
				for i := 0; i < n; i++ {
					if err := cache.ReadTxn(bgb, read); err != nil {
						b.Fatal(err)
					}
				}
				t1 := time.Now()
				for i := 0; i < n; i++ {
					if _, err := cache.Core().GetItems(bgb, keys, kv.Version{}); err != nil {
						b.Fatal(err)
					}
				}
				txn, plain = txn+t1.Sub(t0), plain+time.Since(t1)
			}
			b.ReportMetric(float64(txn)/float64(b.N), "txn-ns")
			b.ReportMetric(float64(plain)/float64(b.N), "getitems-ns")
			b.ReportMetric(float64(txn-plain)/float64(b.N), "check-ns/txn")
		})
	}
}

// BenchmarkCacheReadTxnGetMultiParallel drives the same transaction from
// GOMAXPROCS goroutines over 64 keys: compare -cpu 1 vs -cpu 2 for the
// scaling of the whole client-side read path.
func BenchmarkCacheReadTxnGetMultiParallel(b *testing.B) {
	const nKeys = 64
	cache, keys := benchReadTxnCache(b, nKeys)
	var offset atomic.Uint64
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		base := int(offset.Add(17))
		batch := make([]Key, 5)
		read := func(tx *ReadTx) error {
			_, err := tx.GetMulti(bgb, batch...)
			return err
		}
		for pb.Next() {
			base += 5
			for r := range batch {
				batch[r] = keys[(base+r)%nKeys]
			}
			if err := cache.ReadTxn(bgb, read); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(5, "reads/txn")
}

// BenchmarkDBUpdateTxn measures a 5-object read-then-write update
// transaction through key-ordered locking, validation, commit and
// dependency aggregation.
func BenchmarkDBUpdateTxn(b *testing.B) {
	d := db.Open(db.Config{DepBound: 5})
	defer d.Close()
	seedCluster(b, d, 5)
	keys := benchKeys(5)

	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rewrite(b, d, keys)
	}
}

// rewrite reads keys (lock-free) and writes "v" to each, in one update
// transaction.
func rewrite(b testing.TB, d *db.DB, keys []kv.Key) {
	b.Helper()
	reads := make([]kv.ObservedRead, len(keys))
	writes := make([]kv.KeyValue, len(keys))
	for i, k := range keys {
		item, found := d.Get(k)
		reads[i] = kv.ObservedRead{Key: k, Version: item.Version, Found: found}
		writes[i] = kv.KeyValue{Key: k, Value: kv.Value("v")}
	}
	if _, err := d.CommitUpdate(bgb, reads, writes); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMergeDeps measures the commit-time dependency aggregation
// (§III-A), the database-side cost the paper bounds as O(k²).
func BenchmarkMergeDeps(b *testing.B) {
	accesses := make([]kv.Access, 5)
	for i := range accesses {
		deps := make(kv.DepList, 5)
		for j := range deps {
			deps[j] = kv.Dep(kv.Key(fmt.Sprintf("d%d-%d", i, j)), kv.Version{Counter: uint64(10*i + j)})
		}
		accesses[i] = kv.Access{
			Key:     workload.ObjectKey(i),
			Version: kv.Version{Counter: 100},
			Deps:    deps,
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := kv.MergeDeps(6, accesses); len(got) == 0 {
			b.Fatal("empty merge")
		}
	}
}

// BenchmarkMonitorClassify measures serialization-graph classification
// of one 5-read transaction against a 10k-version history.
func BenchmarkMonitorClassify(b *testing.B) {
	m := monitor.New()
	for v := uint64(1); v <= 10000; v++ {
		m.RecordUpdate(kv.Version{Counter: v}, []kv.Key{workload.ObjectKey(int(v) % 100)}, nil)
	}
	reads := []monitor.Read{
		{Key: workload.ObjectKey(0), Version: kv.Version{Counter: 9900}},
		{Key: workload.ObjectKey(1), Version: kv.Version{Counter: 9901}},
		{Key: workload.ObjectKey(2), Version: kv.Version{Counter: 9902}},
		{Key: workload.ObjectKey(3), Version: kv.Version{Counter: 9903}},
		{Key: workload.ObjectKey(4), Version: kv.Version{Counter: 9904}},
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Classify(reads)
	}
}

// BenchmarkDetectionUnderStaleness measures the validated-read path when
// violations actually fire (RETRY healing a stale entry).
func BenchmarkDetectionUnderStaleness(b *testing.B) {
	d := db.Open(db.Config{DepBound: 5})
	defer d.Close()
	seedCluster(b, d, 2)
	cache, err := core.New(core.Config{Backend: d, Strategy: core.StrategyRetry})
	if err != nil {
		b.Fatal(err)
	}
	defer cache.Close()
	keys := benchKeys(2)

	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Cache b, update {a,b} without invalidation, then read a then b.
		if _, err := cache.Get(bgb, keys[1]); err != nil {
			b.Fatal(err)
		}
		rewrite(b, d, keys)
		cache.Invalidate(keys[0], kv.Version{Counter: ^uint64(0)}) // evict a only
		id := kv.TxnID(i + 1)
		if _, err := cache.Read(bgb, id, keys[0], false); err != nil {
			b.Fatal(err)
		}
		if _, err := cache.Read(bgb, id, keys[1], true); err != nil &&
			!errors.Is(err, core.ErrTxnAborted) {
			b.Fatal(err)
		}
	}
}

// --- Remote (loopback) benchmarks ---------------------------------------

// remoteBench builds the paper's deployment over loopback: a served DB
// holding nKeys seeded objects, a Dial-attached Remote, and a T-Cache on
// top.
func remoteBench(b testing.TB, nKeys int) (*DB, *Remote, *Cache) {
	b.Helper()
	ctx := context.Background()
	d := OpenDB(WithDepListBound(5))
	b.Cleanup(func() { d.Close() })
	addr, stop, err := ServeDB(d, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(stop)
	remote, err := Dial(ctx, addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(remote.Close)
	cache, err := NewCache(remote, WithStrategy(StrategyRetry))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cache.Close)
	if err := d.Update(ctx, func(tx *Tx) error {
		for i := 0; i < nKeys; i++ {
			if err := tx.Set(workload.ObjectKey(i), kv.Value("seed")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	return d, remote, cache
}

// BenchmarkRemoteReadTxn measures a 5-key read-only transaction against
// a Dial-attached remote backend with a warm cache: the edge hot path —
// hits are validated locally, no wire traffic.
func BenchmarkRemoteReadTxn(b *testing.B) {
	_, _, cache := remoteBench(b, 5)
	keys := make([]Key, 5)
	for i := range keys {
		keys[i] = workload.ObjectKey(i)
		if _, err := cache.Get(bgb, keys[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := cache.ReadTxn(bgb, func(tx *ReadTx) error {
			for _, k := range keys {
				if _, err := tx.Get(bgb, k); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(5, "reads/txn")
}

// BenchmarkRemoteReadTxnColdSingle measures the same transaction with an
// always-cold cache and per-key Gets: 5 wire round trips per txn.
func BenchmarkRemoteReadTxnColdSingle(b *testing.B) {
	_, _, cache := remoteBench(b, 5)
	keys := make([]Key, 5)
	for i := range keys {
		keys[i] = workload.ObjectKey(i)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			cache.Invalidate(k, evictAll)
		}
		if err := cache.ReadTxn(bgb, func(tx *ReadTx) error {
			for _, k := range keys {
				if _, err := tx.Get(bgb, k); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(5, "roundtrips/txn")
}

// BenchmarkRemoteReadTxnColdMulti is the batched counterpart: the same 5
// cold keys through GetMulti, one wire round trip per txn.
func BenchmarkRemoteReadTxnColdMulti(b *testing.B) {
	_, _, cache := remoteBench(b, 5)
	keys := make([]Key, 5)
	for i := range keys {
		keys[i] = workload.ObjectKey(i)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			cache.Invalidate(k, evictAll)
		}
		if err := cache.ReadTxn(bgb, func(tx *ReadTx) error {
			_, err := tx.GetMulti(bgb, keys...)
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1, "roundtrips/txn")
}

func seedCluster(b testing.TB, d *db.DB, n int) {
	b.Helper()
	writes := make([]kv.KeyValue, n)
	for i := range writes {
		writes[i] = kv.KeyValue{Key: workload.ObjectKey(i), Value: kv.Value("seed")}
	}
	if _, err := d.CommitUpdate(bgb, nil, writes); err != nil {
		b.Fatal(err)
	}
}

func warm(b testing.TB, cache *core.Cache, n int) {
	b.Helper()
	for i := 0; i < n; i++ {
		if _, err := cache.Get(bgb, workload.ObjectKey(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorClassifyExact measures exact conflict-graph
// classification on a version-torn read set (the path that cannot use
// the interval fast path) against a 10k-transaction history.
func BenchmarkMonitorClassifyExact(b *testing.B) {
	m := monitor.New()
	for v := uint64(1); v <= 10000; v++ {
		k := workload.ObjectKey(int(v) % 100)
		var reads []monitor.Read
		if v > 100 {
			reads = []monitor.Read{{Key: k, Version: kv.Version{Counter: v - 100}}}
		}
		m.RecordUpdate(kv.Version{Counter: v}, []kv.Key{k}, reads)
	}
	// Torn: an old version of one key with fresh versions of others.
	reads := []monitor.Read{
		{Key: workload.ObjectKey(0), Version: kv.Version{Counter: 9500}},
		{Key: workload.ObjectKey(1), Version: kv.Version{Counter: 9901}},
		{Key: workload.ObjectKey(2), Version: kv.Version{Counter: 9902}},
	}
	if m.Classify(reads) {
		b.Fatal("read set unexpectedly strict-consistent; benchmark would hit the fast path")
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.ClassifyExact(reads)
	}
}

// BenchmarkMonitorRecord measures the monitor's cost per transaction pair
// in paper_sim's shape: one RecordUpdate (5 writes, each read at its
// prior version) and one RecordReadOnly of 5 reads, one of them a version
// stale, over 1,000 keys. The history restarts every 64k updates so a
// long run's memory stays bounded.
func BenchmarkMonitorRecord(b *testing.B) {
	const keys, window = 1000, 1 << 16
	key := workload.AllObjectKeys(keys)
	latest, prev := make([]uint64, keys), make([]uint64, keys)
	writes := make([]kv.Key, 5)
	reads := make([]monitor.Read, 5)
	var m *monitor.Monitor
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%window == 0 {
			b.StopTimer()
			m = monitor.New()
			for k := range latest {
				latest[k], prev[k] = 1, 1
				m.Seed(key[k], kv.Version{Counter: 1})
			}
			b.StartTimer()
		}
		c := uint64(i%window) + 2
		for j := range writes {
			k := (i*7 + j*211) % keys
			writes[j] = key[k]
			reads[j] = monitor.Read{Key: writes[j], Version: kv.Version{Counter: latest[k]}}
			prev[k], latest[k] = latest[k], c
		}
		m.RecordUpdate(kv.Version{Counter: c}, writes, reads)
		for j := range reads {
			k := (i*13 + j*197) % keys
			ver := latest[k]
			if j == 0 {
				ver = prev[k]
			}
			reads[j] = monitor.Read{Key: key[k], Version: kv.Version{Counter: ver}}
		}
		m.RecordReadOnly(reads, true)
	}
}
