package transport

// Tests for the mid-tier role of the cache server: the backend protocol
// it speaks — item-granular OpGet/OpGetBatch with
// read floors, OpSubscribe invalidation relays — and the client-side
// redial cap.

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/kv"
)

// midTier wires a second-level stack: DB → (DBClient) → cache served by
// a CacheServer whose invalidation relay is bridged, exactly as cmd/
// tcached does it.
type midTier struct {
	stack     *testStack
	cacheAddr string
}

func newMidTier(t *testing.T) *midTier {
	t.Helper()
	d := db.Open(db.Config{DepBound: 5})
	t.Cleanup(func() { d.Close() })
	dbSrv := NewDBServer(d, t.Logf)
	dbAddr, err := dbSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dbSrv.Close)
	dbCli, err := DialDB(bg, dbAddr, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dbCli.Close)
	cache, err := core.New(core.Config{Backend: dbCli, Strategy: core.StrategyRetry})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cache.Close)
	srv := NewCacheServer(cache, t.Logf)
	stop, err := SubscribeInvalidations(bg, dbAddr, "mid-tier", func(inv Invalidation) {
		cache.Invalidate(inv.Key, inv.Version)
		srv.Broadcast(inv)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	cacheAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return &midTier{
		stack:     &testStack{db: d, dbSrv: dbSrv, dbAddr: dbAddr, dbCli: dbCli, cache: cache, cacheSrv: srv},
		cacheAddr: cacheAddr,
	}
}

func (m *midTier) set(t *testing.T, key, val string) kv.Version {
	t.Helper()
	v, err := m.stack.dbCli.ValidatedUpdate(bg, nil, []KeyValue{{Key: kv.Key(key), Value: kv.Value(val)}})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestMidTierServesItemsOverWire: a DBClient pointed at a tcached gets
// full items — value, version, dependency list — from OpGet and
// OpGetBatch, so the tcached can back a downstream cache.
func TestMidTierServesItemsOverWire(t *testing.T) {
	m := newMidTier(t)
	m.set(t, "a", "1")
	va := m.set(t, "a", "2") // second write gives "a" a dep list entry
	vb := m.set(t, "b", "x")

	cli, err := DialDB(bg, m.cacheAddr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	item, ok, err := cli.ReadItem(bg, "a")
	if err != nil || !ok {
		t.Fatalf("ReadItem via mid-tier: %v %v", ok, err)
	}
	if item.Version != va || string(item.Value) != "2" {
		t.Fatalf("item = %q@%s, want \"2\"@%s", item.Value, item.Version, va)
	}

	lookups, err := cli.ReadItems(bg, []kv.Key{"a", "nope", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if !lookups[0].Found || lookups[0].Item.Version != va {
		t.Fatalf("batch[0] = %+v", lookups[0])
	}
	if lookups[1].Found {
		t.Fatal("absent key reported found")
	}
	if !lookups[2].Found || lookups[2].Item.Version != vb {
		t.Fatalf("batch[2] = %+v", lookups[2])
	}
	// The mid-tier cached what it served.
	if m.stack.cache.Len() == 0 {
		t.Fatal("mid-tier cached nothing")
	}
}

// TestMidTierFloorOverWire: a floored read against a mid-tier whose
// cache is stale (its invalidation was suppressed) refetches from the
// database instead of serving the stale entry.
func TestMidTierFloorOverWire(t *testing.T) {
	// Build a mid-tier with NO invalidation bridge: its cache goes stale
	// silently.
	d := db.Open(db.Config{DepBound: 5})
	t.Cleanup(func() { d.Close() })
	dbSrv := NewDBServer(d, t.Logf)
	dbAddr, err := dbSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dbSrv.Close)
	dbCli, err := DialDB(bg, dbAddr, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dbCli.Close)
	cache, err := core.New(core.Config{Backend: dbCli, Strategy: core.StrategyRetry})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cache.Close)
	srv := NewCacheServer(cache, t.Logf)
	cacheAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	if _, err := dbCli.ValidatedUpdate(bg, nil, []KeyValue{{Key: "k", Value: kv.Value("old")}}); err != nil {
		t.Fatal(err)
	}
	cli, err := DialDB(bg, cacheAddr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, _, err := cli.ReadItem(bg, "k"); err != nil {
		t.Fatal(err) // warms the stale-to-be cache
	}
	vNew, err := dbCli.ValidatedUpdate(bg, nil, []KeyValue{{Key: "k", Value: kv.Value("new")}})
	if err != nil {
		t.Fatal(err)
	}

	// Unfloored: stale serve.
	item, _, err := cli.ReadItem(bg, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(item.Value) != "old" {
		t.Fatalf("expected the stale cache to serve \"old\", got %q", item.Value)
	}
	// Floored at the new version: refetch.
	item, ok, err := cli.ReadItemFloor(bg, "k", vNew)
	if err != nil || !ok {
		t.Fatalf("floored read: %v %v", ok, err)
	}
	if string(item.Value) != "new" || item.Version != vNew {
		t.Fatalf("floored read = %q@%s, want \"new\"@%s", item.Value, item.Version, vNew)
	}
	// Batch floors too.
	if _, err := dbCli.ValidatedUpdate(bg, nil, []KeyValue{{Key: "k", Value: kv.Value("newer")}}); err != nil {
		t.Fatal(err)
	}
	var b BatchRead
	cli.StartReadItemsFloor(bg, &b, []kv.Key{"k"}, kv.Version{Counter: vNew.Counter + 1})
	lookups, err := b.Wait(bg)
	if err != nil {
		t.Fatal(err)
	}
	if string(lookups[0].Item.Value) != "newer" {
		t.Fatalf("floored batch = %q, want \"newer\"", lookups[0].Item.Value)
	}
}

// TestMidTierRelaysInvalidations: a downstream subscriber on the cache
// server receives the invalidations the daemon broadcasts, and duplicate
// subscriber names are rejected.
func TestMidTierRelaysInvalidations(t *testing.T) {
	m := newMidTier(t)

	var mu sync.Mutex
	got := map[kv.Key]kv.Version{}
	stop, err := SubscribeInvalidations(bg, m.cacheAddr, "downstream", func(inv Invalidation) {
		mu.Lock()
		got[inv.Key] = inv.Version
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	if n := m.stack.cacheSrv.Subscribers(); n != 1 {
		t.Fatalf("Subscribers() = %d, want 1", n)
	}
	// A second subscriber under the same name is refused.
	if _, err := OpenInvalidationStream(bg, m.cacheAddr, "downstream"); err == nil {
		t.Fatal("duplicate downstream subscriber accepted")
	} else if !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate rejection not descriptive: %v", err)
	}

	v := m.set(t, "relayed", "x")
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		gv, ok := got["relayed"]
		mu.Unlock()
		if ok {
			if gv != v {
				t.Fatalf("relayed version = %s, want %s", gv, v)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("invalidation never relayed downstream")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDBStatsOverWire: both servers answer OpStats (the DB server used
// to list it as non-blocking but never dispatch it).
func TestDBStatsOverWire(t *testing.T) {
	m := newMidTier(t)
	m.set(t, "s", "1")
	stats, err := m.stack.dbCli.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counters["txns_committed"] == 0 {
		t.Fatalf("db stats missing commits: %v", stats)
	}
	// And the cache server's stats through a DBClient.
	cli, err := DialDB(bg, m.cacheAddr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, _, err := cli.ReadItem(bg, "s"); err != nil {
		t.Fatal(err)
	}
	cstats, err := cli.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if cstats.Counters["reads"] == 0 {
		t.Fatalf("cache stats missing reads: %v", cstats)
	}
	if _, ok := cstats.Counters["floor_refetches"]; !ok {
		t.Fatalf("cache stats missing floor_refetches: %v", cstats)
	}
}

// TestRedialCapFailsFast: with the server gone for good, an idempotent
// call on a stale connection exhausts its capped redial budget and
// fails with ErrUnavailable — quickly, instead of nursing the dead node
// forever.
func TestRedialCapFailsFast(t *testing.T) {
	d := db.Open(db.Config{DepBound: 5})
	t.Cleanup(func() { d.Close() })
	srv := NewDBServer(d, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialDB(bg, addr, 1, WithMaxRedials(2), WithRedialBackoff(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Ping(bg); err != nil {
		t.Fatal(err)
	}

	srv.Close() // server gone; the pooled connection is now stale

	start := time.Now()
	_, _, err = cli.ReadItem(bg, "k")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("read against a dead server succeeded")
	}
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable in the chain", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("capped redial took %v — not failing fast", elapsed)
	}

	// WithMaxRedials(0) disables the retry outright: the stale-conn
	// failure surfaces immediately.
	cli0, err0 := DialDB(bg, addr, 1)
	if err0 == nil {
		cli0.Close()
		t.Fatal("dial to closed server succeeded")
	}
}

// TestRedialRecoversAcrossRestart: the capped retry still heals the
// classic case — server restarts, stale conns redialed transparently —
// including when the restart lands within the backoff window.
func TestRedialRecoversAcrossRestart(t *testing.T) {
	d := db.Open(db.Config{DepBound: 5})
	t.Cleanup(func() { d.Close() })
	srv := NewDBServer(d, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialDB(bg, addr, 1, WithMaxRedials(3), WithRedialBackoff(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Ping(bg); err != nil {
		t.Fatal(err)
	}
	d.Seed("k", kv.Value("v"), kv.Version{Counter: 1})

	srv.Close()
	// Restart on the same address shortly after the first (failed)
	// redial attempt would have run.
	restarted := NewDBServer(d, t.Logf)
	go func() {
		time.Sleep(10 * time.Millisecond)
		if _, err := restarted.Listen(addr); err != nil {
			t.Logf("restart listen: %v", err)
		}
	}()
	t.Cleanup(func() { restarted.Close() })

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok, err := cli.ReadItem(bg, "k"); err == nil && ok {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("client never recovered across restart: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
