package tcache_test

// Tests for the unified write path: one Updater API across *DB,
// *Remote, *Cache, and *ClusterCache, optimistic validation over the
// wire, conflict-retry convergence, and the edge's read-your-writes
// guarantee (commit install locally, write-mark floors across the
// cluster tier).

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"tcache"
	"tcache/internal/cluster"
	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/kv"
	"tcache/internal/transport"
)

// increment is the canonical read-modify-write closure: parse the
// counter, add one, write it back.
func increment(ctx context.Context, key tcache.Key) func(tx *tcache.Tx) error {
	return func(tx *tcache.Tx) error {
		raw, found, err := tx.Get(ctx, key)
		if err != nil {
			return err
		}
		n := 0
		if found {
			if n, err = strconv.Atoi(string(raw)); err != nil {
				return err
			}
		}
		return tx.Set(key, tcache.Value(strconv.Itoa(n+1)))
	}
}

// TestUpdaterAcrossBackends drives the SAME closure through all three
// shipping Updater implementations — in-process DB, Remote over the
// wire, and a cache on top of the Remote — and checks each commit is
// observed by a subsequent read on the same handle.
func TestUpdaterAcrossBackends(t *testing.T) {
	r := newRemoteRig(t)
	ctx := context.Background()

	for _, tc := range []struct {
		name string
		up   tcache.Updater
		get  func() (tcache.Value, error)
	}{
		{"db", r.db, func() (tcache.Value, error) {
			v, _, err := r.db.Get(ctx, "counter")
			return v, err
		}},
		{"remote", r.remote, func() (tcache.Value, error) {
			item, _, err := r.remote.ReadItem(ctx, "counter")
			return item.Value, err
		}},
		{"cache", r.cache, func() (tcache.Value, error) {
			return r.cache.Get(ctx, "counter")
		}},
	} {
		if err := tc.up.Update(ctx, increment(ctx, "counter")); err != nil {
			t.Fatalf("%s: Update = %v", tc.name, err)
		}
		if v, err := tc.get(); err != nil {
			t.Fatalf("%s: read after update = %v", tc.name, err)
		} else if string(v) == "" {
			t.Fatalf("%s: read after update empty", tc.name)
		}
	}
	// Three increments across three tiers, one shared counter.
	v, _, err := r.db.Get(ctx, "counter")
	if err != nil || string(v) != "3" {
		t.Fatalf("counter = %q, %v, want 3", v, err)
	}
}

// TestRemoteOCCConflictRetryConverges collides two remote updaters on
// one key: every increment must survive — lost updates would show up as
// a short count. Run under -race in CI, this also shakes the
// multiplexed wire path of the validated-update op.
func TestRemoteOCCConflictRetryConverges(t *testing.T) {
	r := newRemoteRig(t)
	ctx := context.Background()
	if err := r.remote.Update(ctx, func(tx *tcache.Tx) error {
		return tx.Set("n", tcache.Value("0"))
	}); err != nil {
		t.Fatal(err)
	}

	remote2, err := tcache.Dial(ctx, r.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote2.Close()

	const perWorker = 20
	var wg sync.WaitGroup
	errc := make(chan error, 2)
	for _, up := range []tcache.Updater{r.remote, remote2} {
		up := up
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := up.Update(ctx, increment(ctx, "n")); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	item, _, err := r.remote.ReadItem(ctx, "n")
	if err != nil {
		t.Fatal(err)
	}
	if string(item.Value) != strconv.Itoa(2*perWorker) {
		t.Fatalf("counter = %q, want %d (lost updates under OCC conflict retry)", item.Value, 2*perWorker)
	}
}

// TestDBUpdateMoneyTransfer: concurrent transfers through DB.Update, each
// reading and writing its two accounts in random order — the crossed
// orders that once needed a deadlock detector — preserve the total and
// finish within a bounded wall time.
func TestDBUpdateMoneyTransfer(t *testing.T) {
	d := tcache.OpenDB()
	defer d.Close()
	ctx := context.Background()
	const accounts, workers, transfers = 8, 8, 50
	acct := func(i int) tcache.Key { return tcache.Key(fmt.Sprintf("acct%d", i%accounts)) }
	if err := d.Update(ctx, func(tx *tcache.Tx) error {
		for i := 0; i < accounts; i++ {
			if err := tx.Set(acct(i), tcache.Value{100}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		rng := rand.New(rand.NewSource(int64(g)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < transfers; i++ {
				keys := []tcache.Key{acct(g + i), acct(g + i + 1)} // from, to
				flipRead, flipWrite := rng.Intn(2) == 0, rng.Intn(2) == 0
				err := d.Update(ctx, func(tx *tcache.Tx) error {
					order := keys
					if flipRead {
						order = []tcache.Key{keys[1], keys[0]}
					}
					vals, err := tx.GetMulti(ctx, order...)
					if err != nil {
						return err
					}
					from, to := vals[0][0], vals[1][0]
					if flipRead {
						from, to = to, from
					}
					if from == 0 {
						return nil
					}
					w := []tcache.KeyValue{{Key: keys[0], Value: tcache.Value{from - 1}}, {Key: keys[1], Value: tcache.Value{to + 1}}}
					if flipWrite {
						w[0], w[1] = w[1], w[0]
					}
					for _, kv := range w {
						if err := tx.Set(kv.Key, kv.Value); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("transfers still running after a minute: deadlock")
	}
	total := 0
	for i := 0; i < accounts; i++ {
		v, ok, err := d.Get(ctx, acct(i))
		if err != nil || !ok {
			t.Fatalf("account %d = %v, %v", i, ok, err)
		}
		total += int(v[0])
	}
	if total != accounts*100 {
		t.Fatalf("total = %d, want %d (serializability violated)", total, accounts*100)
	}
}

// TestRemoteUpdateCancelMidCommit wedges a remote commit behind a held
// database lock and cancels its ctx: the call must return promptly with
// the context error, and the system must stay clean — once the hold is
// released, a fresh update commits normally.
func TestRemoteUpdateCancelMidCommit(t *testing.T) {
	r := newRemoteRig(t)
	ctx := context.Background()
	if err := r.db.Update(ctx, func(tx *tcache.Tx) error {
		return tx.Set("k", tcache.Value("v0"))
	}); err != nil {
		t.Fatal(err)
	}

	hold, err := r.db.Core().HoldKey(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() {
		errc <- r.remote.Update(wctx, func(tx *tcache.Tx) error {
			return tx.Set("k", tcache.Value("blocked"))
		})
	}()
	qctx, qcancel := context.WithTimeout(ctx, 5*time.Second)
	defer qcancel()
	if err := hold.Queued(qctx, 1); err != nil {
		t.Fatalf("the commit never queued on the server-side lock: %v", err)
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled remote Update = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled remote Update never returned")
	}

	hold.Release()
	// Clean release: a fresh update acquires the lock and commits.
	cctx, ccancel := context.WithTimeout(ctx, 5*time.Second)
	defer ccancel()
	if err := r.remote.Update(cctx, func(tx *tcache.Tx) error {
		return tx.Set("k", tcache.Value("after"))
	}); err != nil {
		t.Fatalf("post-cancel update = %v", err)
	}
	if item, ok, _ := r.remote.ReadItem(ctx, "k"); !ok || string(item.Value) != "after" {
		t.Fatalf("final value = %q, %v", item.Value, ok)
	}
}

// TestCacheUpdateReadYourWritesLossyLink is the headline edge guarantee:
// with EVERY invalidation dropped, a cache that commits through Update
// still reads its own writes immediately — the items installed at commit
// replace the asynchronous stream for the writer's own keys.
// It also exercises conflict healing: the cache's stale snapshot is
// rejected by validation, evicted, and the retry commits against fresh
// reads.
func TestCacheUpdateReadYourWritesLossyLink(t *testing.T) {
	ctx := context.Background()
	d := tcache.OpenDB(tcache.WithDepListBound(5))
	defer d.Close()
	// Drop rate 1.0: the invalidation stream delivers nothing, ever.
	c, err := tcache.NewCache(d, tcache.WithLossyLink(1.0, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := d.Update(ctx, func(tx *tcache.Tx) error {
		return tx.Set("k", tcache.Value("old"))
	}); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Get(ctx, "k"); err != nil || string(v) != "old" {
		t.Fatalf("warmup read = %q, %v", v, err)
	}
	// The database moves on; the cache hears nothing and stays stale.
	if err := d.Update(ctx, func(tx *tcache.Tx) error {
		return tx.Set("k", tcache.Value("mid"))
	}); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Get(ctx, "k"); string(v) != "old" {
		t.Fatalf("lossy-link cache should still serve \"old\", got %q", v)
	}

	// Update through the cache: the first attempt reads the stale "old"
	// snapshot, validation rejects it, the conflict heals the cache, and
	// the retry reads "mid" and commits "mid+new".
	if err := c.Update(ctx, func(tx *tcache.Tx) error {
		cur, _, err := tx.Get(ctx, "k")
		if err != nil {
			return err
		}
		return tx.Set("k", append(cur.Clone(), []byte("+new")...))
	}); err != nil {
		t.Fatal(err)
	}

	// Read-your-writes, instantly, with invalidations still dark.
	if v, err := c.Get(ctx, "k"); err != nil || string(v) != "mid+new" {
		t.Fatalf("read after Update = %q, %v, want \"mid+new\"", v, err)
	}
	if err := c.ReadTxn(ctx, func(tx *tcache.ReadTx) error {
		v, err := tx.Get(ctx, "k")
		if err != nil {
			return err
		}
		if string(v) != "mid+new" {
			return fmt.Errorf("ReadTxn after Update = %q", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestClusterUpdateFloorsStaleNode is the cluster write-then-read floor
// interaction: the client commits through one edge node while the
// written key's HOME node still caches the old value (its invalidation
// link is silent). The client's own cache installed the write, so its
// next read is a local hit; once that copy is gone (evicted, declined by
// admission, never held) the router's write mark must floor the read —
// routed to that stale home node — forcing it to refetch from the
// database instead of serving the client data older than its own
// commit.
func TestClusterUpdateFloorsStaleNode(t *testing.T) {
	ctx := context.Background()
	d := tcache.OpenDB(tcache.WithDepListBound(5))
	defer d.Close()
	dbAddr, stopDB, err := tcache.ServeDB(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stopDB()

	// Two mid-tier nodes with NO invalidation bridge: their caches go
	// stale silently, the worst case the floors exist for.
	addrs := make([]string, 2)
	caches := make([]*core.Cache, 2)
	for i := range addrs {
		cli, err := transport.DialDB(ctx, dbAddr, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		cache, err := core.New(core.Config{Backend: cli, Strategy: core.StrategyRetry})
		if err != nil {
			t.Fatal(err)
		}
		defer cache.Close()
		srv := transport.NewCacheServer(cache, t.Logf)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs[i], caches[i] = addr, cache
	}

	// Find a key whose ring home is node 1: updates relay through the
	// first live node (node 0), so node 1 never sees the write and stays
	// the stale home the read is routed to.
	ring, err := cluster.NewRing(addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	var key tcache.Key
	for i := 0; ; i++ {
		k := tcache.Key(fmt.Sprintf("obj%d", i))
		if m, _ := ring.Lookup(k); m == 1 {
			key = k
			break
		}
	}

	if err := d.Update(ctx, func(tx *tcache.Tx) error {
		return tx.Set(key, tcache.Value("old"))
	}); err != nil {
		t.Fatal(err)
	}

	cc, err := tcache.DialCluster(ctx, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	// Warm the key: cached locally AND on its home node (node 1).
	if v, err := cc.Get(ctx, key); err != nil || string(v) != "old" {
		t.Fatalf("warmup read = %q, %v", v, err)
	}

	// Commit through the cluster (relayed via node 0 to the database).
	if err := cc.Update(ctx, func(tx *tcache.Tx) error {
		if _, _, err := tx.Get(ctx, key); err != nil {
			return err
		}
		return tx.Set(key, tcache.Value("new"))
	}); err != nil {
		t.Fatal(err)
	}

	// Node 1 still caches "old" — prove it, reading it directly without
	// a floor.
	rawCli, err := transport.DialDB(ctx, addrs[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rawCli.Close()
	if item, ok, err := rawCli.ReadItem(ctx, kv.Key(key)); err != nil || !ok || string(item.Value) != "old" {
		t.Fatalf("home node should still cache \"old\", got %q, %v, %v", item.Value, ok, err)
	}

	// The client's own read is served by the item its commit installed.
	if v, err := cc.Get(ctx, key); err != nil || string(v) != "new" {
		t.Fatalf("read after cluster Update = %q, %v, want \"new\" (commit install)", v, err)
	}
	if fr := caches[1].Metrics().FloorRefetches; fr != 0 {
		t.Fatalf("the installed write was refetched (%d floor refetches)", fr)
	}
	// Without the local copy the read is floored at the commit: routed to
	// the stale home node, which must refetch instead of serving "old".
	cc.Invalidate(key, tcache.Version{Counter: 1 << 62})
	if v, err := cc.Get(ctx, key); err != nil || string(v) != "new" {
		t.Fatalf("read after cluster Update = %q, %v, want \"new\" (write-mark floor)", v, err)
	}
	if fr := caches[1].Metrics().FloorRefetches; fr == 0 {
		t.Fatal("home node served the floored read without a refetch")
	}
}

// readOnlyBackend implements Backend but not UpdaterBackend.
type readOnlyBackend struct{}

func (readOnlyBackend) ReadItem(ctx context.Context, key tcache.Key) (tcache.Item, bool, error) {
	return tcache.Item{}, false, nil
}

func (readOnlyBackend) Subscribe(name string, sink func(tcache.Invalidation)) (func(), error) {
	return func() {}, nil
}

// TestCacheUpdateUnsupportedBackend: a cache on a backend without the
// write capability refuses Update with a matchable error.
func TestCacheUpdateUnsupportedBackend(t *testing.T) {
	c, err := tcache.NewCache(readOnlyBackend{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Update(context.Background(), func(tx *tcache.Tx) error { return nil })
	if !errors.Is(err, tcache.ErrUpdatesUnsupported) {
		t.Fatalf("Update on read-only backend = %v, want ErrUpdatesUnsupported", err)
	}
}

// TestValidatedUpdateConflictDetail pins the public shape of a rejected
// optimistic commit: ErrConflict identity plus the stale key and the
// committed version that superseded it.
func TestValidatedUpdateConflictDetail(t *testing.T) {
	r := newRemoteRig(t)
	ctx := context.Background()
	if err := r.db.Update(ctx, func(tx *tcache.Tx) error {
		return tx.Set("k", tcache.Value("v1"))
	}); err != nil {
		t.Fatal(err)
	}
	item, _, err := r.remote.ReadItem(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	stale := []tcache.ObservedRead{{Key: "k", Version: item.Version, Found: true}}

	// The database moves on; the observation is now stale.
	if err := r.db.Update(ctx, func(tx *tcache.Tx) error {
		return tx.Set("k", tcache.Value("v2"))
	}); err != nil {
		t.Fatal(err)
	}
	cur, _, err := r.db.Get(ctx, "k")
	if err != nil || string(cur) != "v2" {
		t.Fatal("setup failed")
	}

	_, err = r.remote.ValidatedUpdate(ctx, stale, []tcache.KeyValue{{Key: "k", Value: tcache.Value("v3")}})
	if !errors.Is(err, tcache.ErrConflict) {
		t.Fatalf("stale validated update = %v, want ErrConflict", err)
	}
	var ce *tcache.ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("conflict carried no detail: %v", err)
	}
	if ce.Key != "k" || !ce.Found || !item.Version.Less(ce.Current) {
		t.Fatalf("conflict detail = %+v (observed %s)", ce, item.Version)
	}
	// And the write was NOT applied.
	if v, _, _ := r.db.Get(ctx, "k"); string(v) != "v2" {
		t.Fatalf("rejected commit leaked a write: %q", v)
	}

	var errdb *db.ConflictError
	if !errors.As(err, &errdb) {
		t.Fatal("ConflictError alias does not match db.ConflictError")
	}
}
