package tcache

// What the request paths may allocate, as one table. Counted numbers
// live here; timed ones are bench/ rows (README "Where a number
// lives"). Each row builds its deployment with the helpers bench_test.go
// times, runs one operation under testing.AllocsPerRun — which counts
// every goroutine's mallocs, so a row over loopback includes the server
// side — and fails above its ceiling. A row with atMost set must also
// allocate no more than that earlier row: the routing tier, telemetry
// and a byte budget may add nothing to a warm hit. Rows that cross a
// socket or the log keep 10–20 % of headroom over what go1.24 measures:
// net and runtime allocate differently across the Go versions CI runs,
// and under -race sync.Pool drops a quarter of its Puts, which moves
// every row that recycles a record or a frame buffer.

import (
	"context"
	"testing"
	"time"

	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/evict"
	"tcache/internal/kv"
	"tcache/internal/transport"
)

// allocRuns is the measured runs per row: enough that one GC emptying a
// sync.Pool mid-row disappears in AllocsPerRun's integer average, few
// enough that the rows that fsync keep the table under ten seconds.
const allocRuns = 200

var allocTable = []struct {
	name   string
	max    float64 // ceiling, allocations per operation
	atMost string  // earlier row this one may not out-allocate
	setup  func(t *testing.T) (op func() error)
}{
	// The warm read transaction: the ReadTx and, for GetMulti, the
	// result slice; the transaction record is recycled.
	{"WarmReadTxn5GetOverDial", 1, "", func(t *testing.T) func() error {
		_, _, cache := remoteBench(t, 5)
		return readTxnGets(t, cache, benchKeys(5))
	}},
	{"WarmReadTxn5Get", 1, "", func(t *testing.T) func() error {
		cache, keys := benchReadTxnCache(t, 5)
		return readTxnGets(t, cache, keys)
	}},
	{"WarmReadTxnGetMulti5", 2, "", func(t *testing.T) func() error {
		cache, keys := benchReadTxnCache(t, 5)
		return readTxnMulti(cache, keys, false)
	}},
	{"WarmPlainGet", 0, "", func(t *testing.T) func() error {
		cache, keys := benchReadTxnCache(t, 1)
		return func() error { _, err := cache.Get(bgb, keys[0]); return err }
	}},
	// Cold: every key evicted, then one OpGetBatch round trip; each of
	// the five fills allocates its entry and the entry's dependency-key
	// hashes (the CoreInstall5Deps row).
	{"ColdReadTxnGetMulti5OverDial", 43, "", func(t *testing.T) func() error {
		_, _, cache := remoteBench(t, 5)
		return readTxnMulti(cache, benchKeys(5), true)
	}},

	// Cluster tier against the plain Dial deployment it generalises:
	// the ring is consulted on fills only, so a warm read costs the same.
	{"WarmReadTxn5GetOverCluster", 1, "WarmReadTxn5GetOverDial", func(t *testing.T) func() error {
		return readTxnGets(t, clusterBench(t, 5).Cache, benchKeys(5))
	}},
	{"ColdRead1OverCluster", 11, "", func(t *testing.T) func() error {
		return readTxnMulti(clusterBench(t, 1).Cache, benchKeys(1), true)
	}},
	// Five keys land on two or three nodes depending on the edges' ports:
	// 39 or 44, up to 56 under -race.
	{"ColdReadTxnGetMulti5OverCluster", 67, "", func(t *testing.T) func() error {
		return readTxnMulti(clusterBench(t, 5).Cache, benchKeys(5), true)
	}},

	// One single-key read-modify-write through each Updater; a blind
	// write is the pure commit round trip.
	{"UpdateDB", 15, "", func(t *testing.T) func() error {
		d, _, _ := remoteBench(t, 1)
		return rmw(d, true)
	}},
	{"UpdateRemote", 34, "", func(t *testing.T) func() error {
		_, remote, _ := remoteBench(t, 1)
		return rmw(remote, true)
	}},
	{"UpdateRemoteBlind", 23, "", func(t *testing.T) func() error {
		_, remote, _ := remoteBench(t, 1)
		return rmw(remote, false)
	}},
	{"UpdateCache", 30, "", func(t *testing.T) func() error {
		_, _, cache := remoteBench(t, 1)
		return rmw(cache, true)
	}},

	// The database's update transaction alone: a 5-key read-modify-write
	// on an in-process db.DB (dependency bound 3, no log, no subscriber).
	// Per written key: its value and its dependency list, which the store
	// keeps (10); per commit: the merge's result and scratch, the record's
	// read and write sets, and the result's slice. The transaction is
	// pooled.
	{"CommitUpdate5", 17, "", func(t *testing.T) func() error {
		d := db.Open(db.Config{DepBound: 3})
		t.Cleanup(func() { d.Close() })
		seedCluster(t, d, 5)
		keys := benchKeys(5)
		reads := make([]kv.ObservedRead, len(keys))
		writes := make([]kv.KeyValue, len(keys))
		val := kv.Value("v")
		return func() error {
			for i, k := range keys {
				item, found := d.Get(k)
				reads[i] = kv.ObservedRead{Key: k, Version: item.Version, Found: found}
				writes[i] = kv.KeyValue{Key: k, Value: val}
			}
			_, err := d.CommitUpdate(bgb, reads, writes)
			return err
		}
	}},

	// One durable commit: WAL append + fsync, then the standby's stream,
	// then its acknowledgment. An asynchronous standby batches the stream
	// as it keeps up: 11–13 allocations plain, 15–23 under -race.
	{"DurableCommit", 13, "", func(t *testing.T) func() error { return durableCommit(t, false, 0) }},
	{"DurableCommitAsyncStandby", 28, "", func(t *testing.T) func() error { return durableCommit(t, true, 0) }},
	{"DurableCommitSyncStandby", 31, "", func(t *testing.T) func() error { return durableCommit(t, true, 1) }},

	// The validated read below the public API (five core.Read per
	// transaction), bare, instrumented, and under each byte-budget policy.
	{"CoreWarmHit", 0, "", func(t *testing.T) func() error { return coreWarmHit(t, core.Config{}) }},
	{"CoreWarmHitTelemetry", 0, "CoreWarmHit", func(t *testing.T) func() error {
		tel := core.NewTelemetry()
		t.Cleanup(func() {
			if warm := tel.ReadWarm.Snapshot(); warm.Count() == 0 {
				t.Error("instrumented row recorded no warm hit: it measured the uninstrumented path")
			}
		})
		return coreWarmHit(t, core.Config{Telemetry: tel})
	}},
	{"CoreWarmHitLRU", 0, "CoreWarmHit", func(t *testing.T) func() error {
		return coreWarmHit(t, core.Config{MaxBytes: 1 << 20, Policy: evict.LRU})
	}},
	{"CoreWarmHitClock", 0, "CoreWarmHit", func(t *testing.T) func() error {
		return coreWarmHit(t, core.Config{MaxBytes: 1 << 20, Policy: evict.Clock})
	}},
	{"CoreWarmHitCost", 0, "CoreWarmHit", func(t *testing.T) func() error {
		return coreWarmHit(t, core.Config{MaxBytes: 1 << 20, Policy: evict.Cost})
	}},
	// A fill into a full budget under each policy: the policy's Add links
	// the new entry and its eviction Removes one resident. The one
	// allocation is the entry itself.
	{"CoreFillEvictLRU", 1, "", func(t *testing.T) func() error { return coreFillEvict(t, evict.LRU) }},
	{"CoreFillEvictClock", 1, "", func(t *testing.T) func() error { return coreFillEvict(t, evict.Clock) }},
	{"CoreFillEvictCost", 1, "", func(t *testing.T) func() error { return coreFillEvict(t, evict.Cost) }},
	// A newer item replacing a cached one, five dependencies: the one
	// allocation is the entry's slice of dependency-key hashes, which is
	// what lets the warm rows above check eq.1/eq.2 without hashing.
	{"CoreInstall5Deps", 1, "", func(t *testing.T) func() error {
		d := db.Open(db.Config{})
		t.Cleanup(func() { d.Close() })
		cache, err := core.New(core.Config{Backend: d})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cache.Close)
		item := kv.Item{Value: kv.Value("v")}
		for _, k := range benchKeys(5) {
			item.Deps = append(item.Deps, kv.DepEntry{Key: k})
		}
		return func() error {
			item.Version.Counter++
			cache.Install("installed", item)
			return nil
		}
	}},
}

func TestAllocBudgets(t *testing.T) {
	got := map[string]float64{}
	for _, row := range allocTable {
		t.Run(row.name, func(t *testing.T) {
			op := row.setup(t)
			allocs := testing.AllocsPerRun(allocRuns, func() {
				if err := op(); err != nil {
					t.Fatal(err)
				}
			})
			got[row.name] = allocs
			if allocs > row.max {
				t.Errorf("%s: %.0f allocs/op, budget %.0f", row.name, allocs, row.max)
			} else {
				t.Logf("%.0f allocs/op, budget %.0f", allocs, row.max)
			}
			if row.atMost == "" {
				return
			}
			base, ok := got[row.atMost]
			if !ok {
				t.Fatalf("%s: compared against %s, which has not run", row.name, row.atMost)
			}
			if allocs > base {
				t.Errorf("%s: %.0f allocs/op, %s allocates %.0f: must add none", row.name, allocs, row.atMost, base)
			}
		})
	}
}

// readTxnGets warms keys into cache and returns a read transaction of
// one Get per key.
func readTxnGets(t *testing.T, cache *Cache, keys []Key) func() error {
	read := func(tx *ReadTx) error {
		for _, k := range keys {
			if _, err := tx.Get(bgb, k); err != nil {
				return err
			}
		}
		return nil
	}
	if err := cache.ReadTxn(bgb, read); err != nil {
		t.Fatal(err)
	}
	return func() error { return cache.ReadTxn(bgb, read) }
}

// readTxnMulti returns a read transaction of one GetMulti over keys —
// with cold, after evicting every one of them.
func readTxnMulti(cache *Cache, keys []Key, cold bool) func() error {
	read := func(tx *ReadTx) error {
		_, err := tx.GetMulti(bgb, keys...)
		return err
	}
	return func() error {
		if cold {
			for _, k := range keys {
				cache.Invalidate(k, evictAll)
			}
		}
		return cache.ReadTxn(bgb, read)
	}
}

// clusterBench is remoteBench's deployment with a routing tier: the
// served DB behind three edge nodes, and a DialCluster client on them.
func clusterBench(t *testing.T, nKeys int) *ClusterCache {
	_, remote, _ := remoteBench(t, nKeys)
	addrs := make([]string, 3)
	for i := range addrs {
		edge, err := ServeEdge(bgb, remote.currentAddr(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(edge.Close)
		addrs[i] = edge.Addr()
	}
	cc, err := DialCluster(bgb, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cc.Close)
	return cc
}

// rmw returns one update of the first object key through up: read then
// write, or with read false the write alone.
func rmw(up Updater, read bool) func() error {
	key, val := benchKeys(1)[0], Value("w")
	fn := func(tx *Tx) error {
		if read {
			if _, _, err := tx.Get(bgb, key); err != nil {
				return err
			}
		}
		return tx.Set(key, val)
	}
	return func() error { return up.Update(bgb, fn) }
}

// durableCommit returns one blind 64-byte commit on a primary that
// fsyncs every commit — alone, or with a standby streaming its log over
// loopback, whose acknowledgment minSync 1 makes each commit wait for.
func durableCommit(t *testing.T, standby bool, minSync int) func() error {
	primary, err := db.Recover(db.Config{DepBound: 5, WALSync: true, ReplMinSync: minSync}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	var replica *db.DB
	if standby {
		node, err := transport.ServeDB(primary, transport.DBNodeConfig{Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		if replica, err = db.Recover(db.Config{DepBound: 5, NodeID: 1}, t.TempDir()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { replica.Close() })
		replicaNode, err := transport.ServeDB(replica, transport.DBNodeConfig{
			Listen: "127.0.0.1:0", Standby: transport.StandbyConfig{Primary: node.Addr()},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(replicaNode.Close)
	}
	// One context for the row: a per-commit deadline would be counted.
	ctx, cancel := context.WithTimeout(bgb, time.Minute)
	t.Cleanup(cancel)
	writes := []kv.KeyValue{{Key: "bench", Value: make(kv.Value, 64)}}
	commit := func() error {
		_, err := primary.ValidatedUpdate(ctx, nil, writes)
		return err
	}
	// The standby's attach and state transfer stay out of the measurement.
	if err := commit(); err != nil {
		t.Fatal(err)
	}
	for replica != nil && replica.VersionCounter() < primary.VersionCounter() && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	return commit
}

// coreWarmHit returns one five-read validated transaction, all hits, on
// a core cache built from cfg over an in-process database: Begin,
// Txn.Read per key and Finish, as ReadTxn runs it.
func coreWarmHit(t *testing.T, cfg core.Config) func() error {
	d := db.Open(db.Config{DepBound: 5})
	t.Cleanup(func() { d.Close() })
	seedCluster(t, d, 5)
	cfg.Backend, cfg.Strategy = d, core.StrategyRetry
	cache, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cache.Close)
	warm(t, cache, 5)
	keys := benchKeys(5)
	var id kv.TxnID
	return func() error {
		id++
		txn := cache.Begin(id, time.Time{})
		for _, k := range keys {
			if _, err := txn.Read(bgb, k); err != nil {
				txn.Finish(false)
				return err
			}
		}
		return txn.Finish(true)
	}
}

// coreFillEvict returns one install of a key the cache does not hold, on
// a core cache already at its byte budget, so that each install evicts
// one resident. The keys are built here, outside the measured op.
func coreFillEvict(t *testing.T, policy evict.Kind) func() error {
	d := db.Open(db.Config{})
	t.Cleanup(func() { d.Close() })
	cache, err := core.New(core.Config{Backend: d, MaxBytes: 16 << 10, Shards: 1, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cache.Close)
	evicted := func() uint64 {
		m := cache.Metrics()
		return m.EvictionsLRU + m.EvictionsClock + m.EvictionsCost
	}
	keys, item, next := benchKeys(4*allocRuns), kv.Item{Value: kv.Value("v")}, 0
	install := func() error {
		item.Version.Counter++
		cache.Install(keys[next], item)
		next++
		return nil
	}
	for evicted() == 0 {
		install()
	}
	from, base := next, evicted()
	t.Cleanup(func() {
		if n := evicted() - base; n != uint64(next-from) {
			t.Errorf("%d installs evicted %d residents, want one each", next-from, n)
		}
	})
	return install
}
