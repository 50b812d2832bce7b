package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcache"
	"tcache/internal/clock"
	"tcache/internal/cluster"
	"tcache/internal/core"
	"tcache/internal/kv"
	"tcache/internal/transport"
)

var bg = context.Background()

// rig is a full loopback cluster: one served DB and n edge nodes.
type rig struct {
	t     *testing.T
	db    *tcache.DB
	dbAdr string
	edges []*tcache.Edge
	addrs []string
}

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	d := tcache.OpenDB(tcache.WithDepListBound(5))
	t.Cleanup(func() { d.Close() })
	dbAddr, stop, err := tcache.ServeDB(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	r := &rig{t: t, db: d, dbAdr: dbAddr}
	for i := 0; i < n; i++ {
		e, err := tcache.ServeEdge(bg, dbAddr, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		r.edges = append(r.edges, e)
		r.addrs = append(r.addrs, e.Addr())
	}
	t.Cleanup(r.closeAll)
	return r
}

func (r *rig) closeAll() {
	for _, e := range r.edges {
		if e != nil {
			e.Close()
		}
	}
	r.edges = nil
}

// kill shuts edge i down, keeping its address free for a restart.
func (r *rig) kill(i int) {
	r.edges[i].Close()
	r.edges[i] = nil
}

// restart brings a fresh edge up on the killed edge's old address.
func (r *rig) restart(i int) error {
	e, err := tcache.ServeEdge(bg, r.dbAdr, r.addrs[i])
	if err != nil {
		return err
	}
	r.edges[i] = e
	return nil
}

func (r *rig) set(keys []kv.Key, val string) {
	r.t.Helper()
	if err := r.db.Update(bg, func(tx *tcache.Tx) error {
		for _, k := range keys {
			if err := tx.Set(k, kv.Value(val)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		r.t.Fatal(err)
	}
}

func testKeys(n int) []kv.Key {
	keys := make([]kv.Key, n)
	for i := range keys {
		keys[i] = kv.Key(fmt.Sprintf("object-%d", i))
	}
	return keys
}

// fastConfig is a router config tuned for test-speed failure detection.
func fastConfig(addrs []string) cluster.Config {
	return cluster.Config{
		Addrs:         addrs,
		FailThreshold: 2,
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  500 * time.Millisecond,
		Probation:     2 * time.Second,
	}
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFailoverMidGetMulti is the acceptance scenario: a 3-node loopback
// cluster serving concurrent batch reads has one node killed mid-flight.
// Every key must keep resolving from the survivors, no read may ever
// observe a version going backwards, and the restarted node must be
// re-probed and re-admitted.
func TestFailoverMidGetMulti(t *testing.T) {
	r := newRig(t, 3)
	keys := testKeys(60)
	r.set(keys, "v1")

	router, err := cluster.NewRouter(bg, fastConfig(r.addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	// Hammer: concurrent GetMulti over all keys. Each worker tracks the
	// highest version IT has observed per key: the failover contract is
	// read-your-observations — one client's reads of a key never go
	// backwards — not cross-client freshness (two edges may lag
	// differently; that is the paper's model, and the local cache's
	// eq.1/eq.2 checks handle it).
	var (
		stop  atomic.Bool
		wg    sync.WaitGroup
		fails atomic.Int64
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			highest := map[kv.Key]kv.Version{}
			for !stop.Load() {
				lookups, err := router.ReadItems(bg, keys)
				if err != nil {
					// A fleet-wide outage would be a bug; transient errors
					// while the dead node is being detected are not.
					fails.Add(1)
					continue
				}
				for i, lu := range lookups {
					if !lu.Found {
						t.Errorf("key %s not found", keys[i])
						return
					}
					if lu.Item.Version.Less(highest[keys[i]]) {
						t.Errorf("key %s regressed: read %s after %s", keys[i], lu.Item.Version, highest[keys[i]])
						return
					}
					highest[keys[i]] = lu.Item.Version
				}
			}
		}()
	}

	// Let the hammer run warm, then kill a node mid-traffic.
	time.Sleep(100 * time.Millisecond)
	r.set(keys, "v2")
	time.Sleep(100 * time.Millisecond)
	r.kill(1)

	waitFor(t, 5*time.Second, "node ejection", func() bool {
		return router.Nodes()[1].State == cluster.NodeEjected
	})
	// With the node ejected, reads must flow error-free from survivors.
	preFails := fails.Load()
	time.Sleep(200 * time.Millisecond)
	if f := fails.Load(); f != preFails {
		t.Fatalf("reads still failing after ejection: %d new failures", f-preFails)
	}

	// Restart the node on its old address: its watcher must re-admit
	// it (probation first, up after).
	if err := r.restart(1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "node re-admission", func() bool {
		s := router.Nodes()[1].State
		return s == cluster.NodeProbation || s == cluster.NodeUp
	})

	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
}

// TestRouterAdmitsNodeDownAtStart: a node whose address refuses
// connections when NewRouter runs starts ejected and says it was never
// connected; once a tcached comes up there, the health machinery dials
// it, admits it into probation, and reads of its key ranges are served
// by it.
func TestRouterAdmitsNodeDownAtStart(t *testing.T) {
	r := newRig(t, 2)
	keys := testKeys(40)
	r.set(keys, "v1")
	r.kill(1) // nothing listens at r.addrs[1] until the restart below

	router, err := cluster.NewRouter(bg, fastConfig(r.addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	if s := router.Nodes()[1].State; s != cluster.NodeEjected {
		t.Fatalf("down node state = %s, want %s", s, cluster.NodeEjected)
	}
	if st := router.Stats(bg)[1]; !strings.Contains(st.Err, "never connected") {
		t.Fatalf("down node Stats.Err = %q, want it to say never connected", st.Err)
	}

	if err := r.restart(1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "admission into probation", func() bool {
		return router.Nodes()[1].State == cluster.NodeProbation
	})

	ring, err := cluster.NewRing(r.addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	var owned []kv.Key
	for _, k := range keys {
		if m, _ := ring.Lookup(k); m == 1 {
			owned = append(owned, k)
		}
	}
	if len(owned) == 0 {
		t.Fatal("no test key hashes to node 1")
	}
	for _, k := range owned {
		item, ok, err := router.ReadItem(bg, k)
		if err != nil || !ok || string(item.Value) != "v1" {
			t.Fatalf("ReadItem(%s) = %q, %v, %v; want v1", k, item.Value, ok, err)
		}
		if _, cached := r.edges[1].Cache().Cached(k); !cached {
			t.Fatalf("key %s was not served by its admitted home node", k)
		}
	}
	lookups, err := router.ReadItems(bg, owned)
	if err != nil {
		t.Fatal(err)
	}
	for i, lu := range lookups {
		if !lu.Found || string(lu.Item.Value) != "v1" {
			t.Fatalf("ReadItems[%s] = %+v, want v1", owned[i], lu)
		}
	}
}

// staleEdge builds an edge node that NEVER receives invalidations: the
// adversarial survivor for the floor tests. Returns its address and the
// underlying cache.
func staleEdge(t *testing.T, dbAddr string) (string, *core.Cache) {
	t.Helper()
	backend, err := transport.DialDB(bg, dbAddr, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(backend.Close)
	cache, err := core.New(core.Config{Backend: backend, Strategy: core.StrategyRetry})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cache.Close)
	srv := transport.NewCacheServer(cache, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return addr, cache
}

// TestFailoverFloorBlocksStaleRead builds the precise staleness the
// floor exists for: the client observed version 2 of a key through its
// home node; the home node dies; the ring successor holds version 1 in
// its cache (it missed the invalidation). The failover re-read must
// surface version 2 — never 1 — because it carries the range's
// high-water floor, which forces the stale survivor to refetch from the
// database.
func TestFailoverFloorBlocksStaleRead(t *testing.T) {
	r := newRig(t, 2) // edge 0 healthy, edge 1 replaced below
	staleAddr, _ := staleEdge(t, r.dbAdr)
	addrs := []string{r.addrs[0], staleAddr}

	keys := testKeys(200)
	r.set(keys, "v1")

	// Pick a key homed on the healthy edge whose failover successor is
	// the stale edge — with 2 members every key qualifies as long as its
	// home is edge 0.
	ring, err := cluster.NewRing(addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	var key kv.Key
	for _, k := range keys {
		if m, _ := ring.Lookup(k); m == 0 {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key homed on edge 0")
	}

	// Warm the STALE edge with version 1 (a direct backend read fills
	// its cache), before the update it will never hear about.
	staleCli, err := transport.DialDB(bg, staleAddr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer staleCli.Close()
	if item, ok, err := staleCli.ReadItem(bg, key); err != nil || !ok {
		t.Fatalf("warm stale edge: %v %v", item, err)
	}

	router, err := cluster.NewRouter(bg, fastConfig(addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	// The client reads v2 through its home node: the range watermark now
	// carries v2's version.
	r.set([]kv.Key{key}, "v2")
	item, ok, err := router.ReadItem(bg, key)
	if err != nil || !ok {
		t.Fatalf("read through home: %v %v", ok, err)
	}
	v2 := item.Version
	if string(item.Value) != "v2" {
		t.Fatalf("home read = %q, want v2", item.Value)
	}

	// Sanity: the stale edge would serve version 1 to an unfloored read.
	if stale, ok, err := staleCli.ReadItem(bg, key); err != nil || !ok {
		t.Fatal(err)
	} else if !stale.Version.Less(v2) {
		t.Fatalf("stale edge is not stale (has %s, v2 is %s)", stale.Version, v2)
	}

	// Kill the home node; the failover re-read must not go backwards.
	r.kill(0)
	waitFor(t, 5*time.Second, "failover read at v2", func() bool {
		got, ok, err := router.ReadItem(bg, key)
		if err != nil || !ok {
			return false // home death still being detected
		}
		if got.Version.Less(v2) {
			t.Fatalf("failover read regressed to %s (%q), client had observed %s",
				got.Version, got.Value, v2)
		}
		return true
	})
}

// TestWatermarkFromInvalidations covers the second floor source: the
// client never READ the new version, it only saw the invalidation
// relayed through its subscription — and that alone must protect the
// failover read from the stale survivor.
func TestWatermarkFromInvalidations(t *testing.T) {
	r := newRig(t, 2)
	staleAddr, _ := staleEdge(t, r.dbAdr)
	addrs := []string{r.addrs[0], staleAddr}

	keys := testKeys(200)
	r.set(keys, "v1")

	ring, err := cluster.NewRing(addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	var key kv.Key
	for _, k := range keys {
		if m, _ := ring.Lookup(k); m == 0 {
			key = k
			break
		}
	}
	staleCli, err := transport.DialDB(bg, staleAddr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer staleCli.Close()
	if _, ok, err := staleCli.ReadItem(bg, key); err != nil || !ok {
		t.Fatal("warm stale edge failed")
	}

	router, err := cluster.NewRouter(bg, fastConfig(addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	// Subscribe through the router (its home choice may be either node;
	// only edge 0 relays, so wait until the invalidation for our update
	// arrives — re-subscription failover is the router's job).
	var seen atomic.Bool
	cancel, err := router.Subscribe("watermark-test", func(inv transport.Invalidation) {
		if inv.Key == key {
			seen.Store(true)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	r.set([]kv.Key{key}, "v2")
	waitFor(t, 5*time.Second, "invalidation relay", func() bool { return seen.Load() })

	// Home dies without the client ever reading v2. The watermark learned
	// from the invalidation must still floor the failover read.
	r.kill(0)
	waitFor(t, 5*time.Second, "failover read at v2", func() bool {
		got, ok, err := router.ReadItem(bg, key)
		if err != nil || !ok {
			return false
		}
		if string(got.Value) == "v1" {
			t.Fatalf("failover read served the stale value after its invalidation was relayed")
		}
		return string(got.Value) == "v2"
	})
}

// TestRouterNoNodes: a fleet with nothing reachable refuses to start.
func TestRouterNoNodes(t *testing.T) {
	// Grab a port that nothing listens on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	_, err = cluster.NewRouter(bg, cluster.Config{Addrs: []string{addr}})
	if !errors.Is(err, cluster.ErrNoNodes) {
		t.Fatalf("err = %v, want ErrNoNodes", err)
	}
}

// TestRouterSubscribeFailover: killing the subscription's home node must
// move the stream to a survivor; invalidations committed after the
// failover settle must arrive.
func TestRouterSubscribeFailover(t *testing.T) {
	r := newRig(t, 3)
	keys := testKeys(8)
	r.set(keys, "v1")

	router, err := cluster.NewRouter(bg, fastConfig(r.addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	var mu sync.Mutex
	got := map[kv.Key]int{}
	cancel, err := router.Subscribe("failover-sub", func(inv transport.Invalidation) {
		mu.Lock()
		got[inv.Key]++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	r.set(keys[:1], "v2")
	waitFor(t, 5*time.Second, "first invalidation", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got[keys[0]] > 0
	})

	// Kill every node except one: wherever the stream lived, it must end
	// up on the survivor.
	r.kill(0)
	r.kill(1)
	waitFor(t, 10*time.Second, "invalidations after failover", func() bool {
		r.set(keys[1:2], fmt.Sprintf("v%d", time.Now().UnixNano()))
		time.Sleep(50 * time.Millisecond)
		mu.Lock()
		defer mu.Unlock()
		return got[keys[1]] > 0
	})
}

// TestBatchFailoverOnTwoNodeFleet regresses the round-budget bug: with
// only two nodes and the default-ish fail threshold HIGHER than the
// batch retry rounds, killing the node that owns keys must not turn
// GetMulti into ErrNoNodes while the other node is healthy — the
// per-call exclusion has to route around the dead node at its first
// failure, before ejection.
func TestBatchFailoverOnTwoNodeFleet(t *testing.T) {
	r := newRig(t, 2)
	keys := testKeys(40)
	r.set(keys, "v1")

	cfg := fastConfig(r.addrs)
	cfg.FailThreshold = 5 // ejection needs a long streak on purpose
	router, err := cluster.NewRouter(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	if _, err := router.ReadItems(bg, keys); err != nil {
		t.Fatal(err)
	}
	r.kill(0)
	// The very next calls must succeed from the survivor even though
	// node 0 is not yet ejected (fails < threshold).
	deadline := time.Now().Add(5 * time.Second)
	for {
		lookups, err := router.ReadItems(bg, keys)
		if err == nil {
			for i, lu := range lookups {
				if !lu.Found {
					t.Fatalf("key %s unresolved after failover", keys[i])
				}
			}
			break
		}
		if errors.Is(err, cluster.ErrNoNodes) {
			t.Fatalf("batch returned ErrNoNodes with a healthy survivor: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never recovered: %v", err)
		}
	}
}

// stallServer accepts connections and completes the wire handshake but
// never answers a frame: the fail-slow node (a wedged process, a
// black-holed network) that only the probe deadline can expose. asked,
// if not nil, counts the connections a request has arrived on.
func stallServer(t *testing.T, asked *atomic.Int64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				hs := make([]byte, 8)
				if _, err := io.ReadFull(c, hs); err != nil {
					return
				}
				reply := [8]byte{'T', 'C', 'W', 'P', transport.ProtocolVersion}
				if _, err := c.Write(reply[:]); err != nil {
					return
				}
				// Swallow everything, answer nothing.
				buf := make([]byte, 4096)
				for first := true; ; first = false {
					if _, err := c.Read(buf); err != nil {
						return
					}
					if first && asked != nil {
						asked.Add(1)
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String()
}

// settledGoroutines returns runtime.NumGoroutine once it has held still
// for 50 ms: goroutines of earlier tests and of set-up are still exiting
// when a test starts.
func settledGoroutines() int {
	n, since := runtime.NumGoroutine(), time.Now()
	for time.Since(since) < 50*time.Millisecond {
		time.Sleep(5 * time.Millisecond)
		if now := runtime.NumGoroutine(); now != n {
			n, since = now, time.Now()
		}
	}
	return n
}

// TestReadItemsStaysOnTheCallersGoroutine: a cold batch read fanned out
// over three nodes that all withhold their replies is, while it waits,
// one goroutine — the caller's. Every sub-batch is on the wire and none
// of them got a goroutine of its own.
func TestReadItemsStaysOnTheCallersGoroutine(t *testing.T) {
	var asked atomic.Int64
	cfg := cluster.Config{
		Addrs:    []string{stallServer(t, &asked), stallServer(t, &asked), stallServer(t, &asked)},
		PoolSize: 1, // dialed by NewRouter: the read below dials nothing
		// No probe may fire during the test: a ping is a goroutine too.
		ProbeInterval: time.Hour,
	}
	router, err := cluster.NewRouter(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	before := settledGoroutines()
	done := make(chan error, 1)
	go func() {
		_, err := router.ReadItems(ctx, testKeys(60)) // 60 keys: every node owns some
		done <- err
	}()
	waitFor(t, 5*time.Second, "a sub-batch on every node", func() bool { return asked.Load() == 3 })
	if during := runtime.NumGoroutine(); during != before+1 {
		t.Errorf("%d goroutines while the read waits on 3 nodes, %d before it: want exactly the caller's one more", during, before)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled read = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled read never returned")
	}
	waitFor(t, 5*time.Second, "the caller's goroutine to exit", func() bool { return runtime.NumGoroutine() == before })
}

// TestHealthEjectsFailSlowNode: a node that keeps its TCP session open
// but never answers must be ejected by the probe deadline — transport
// errors alone would never fire for it.
func TestHealthEjectsFailSlowNode(t *testing.T) {
	r := newRig(t, 1)
	stall := stallServer(t, nil)

	cfg := fastConfig([]string{r.addrs[0], stall})
	cfg.ProbeTimeout = 200 * time.Millisecond
	router, err := cluster.NewRouter(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	waitFor(t, 10*time.Second, "fail-slow node ejection", func() bool {
		return router.Nodes()[1].State == cluster.NodeEjected
	})
}

// TestConflictDoesNotTripEjection is the regression guard for the
// failure-accounting audit: an application-level error answered by a
// live node (a validation conflict here) is not a transport failure and
// must never advance the consecutive-failure counter, no matter how
// many times it repeats. Only ErrUnavailable-class errors are health
// signals.
func TestConflictDoesNotTripEjection(t *testing.T) {
	rg := newRig(t, 2)
	keys := testKeys(4)
	rg.set(keys, "v1")

	r, err := cluster.NewRouter(bg, fastConfig(rg.addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// The observed read claims keys[0] was absent; it exists, so the
	// database rejects the update with a conflict — over and over, well
	// past FailThreshold (2 in fastConfig).
	stale := []kv.ObservedRead{{Key: keys[0], Found: false}}
	write := []kv.KeyValue{{Key: keys[0], Value: kv.Value("clobber")}}
	for i := 0; i < 6; i++ {
		_, err := r.ValidatedUpdate(bg, stale, write)
		if !errors.Is(err, transport.ErrConflict) {
			t.Fatalf("update %d: want ErrConflict, got %v", i, err)
		}
	}

	for _, ni := range r.Nodes() {
		if ni.ConsecutiveFails != 0 {
			t.Errorf("node %s: ConsecutiveFails = %d after conflicts, want 0", ni.Addr, ni.ConsecutiveFails)
		}
		if ni.State != cluster.NodeUp {
			t.Errorf("node %s: state = %s after conflicts, want %s", ni.Addr, ni.State, cluster.NodeUp)
		}
	}

	// The fleet must still serve reads and accept a valid update.
	if _, ok, err := r.ReadItem(bg, keys[0]); err != nil || !ok {
		t.Fatalf("read after conflicts: ok=%v err=%v", ok, err)
	}
	item, _, err := r.ReadItem(bg, keys[1])
	if err != nil {
		t.Fatal(err)
	}
	good := []kv.ObservedRead{{Key: keys[1], Version: item.Version, Found: true}}
	if _, err := r.ValidatedUpdate(bg, good, []kv.KeyValue{{Key: keys[1], Value: kv.Value("v2")}}); err != nil {
		t.Fatalf("valid update after conflicts: %v", err)
	}
}

// TestRouterCommitUpdateRelaysTheAnswer: a commit through the router
// comes back with the database's own answer — the version and, per
// write, the dependency list now stored with the key — whichever node
// relayed it, and floors this client's next reads of the written ranges
// at that version: the home edges cached the old values a moment ago and
// may not have heard the invalidation yet, but the read after the commit
// returns the new one.
func TestRouterCommitUpdateRelaysTheAnswer(t *testing.T) {
	rg := newRig(t, 3)
	keys := testKeys(3)
	rg.set(keys, "v1")
	r, err := cluster.NewRouter(bg, fastConfig(rg.addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for round := 0; round < 3; round++ { // one relay per node
		var reads []kv.ObservedRead
		var writes []kv.KeyValue
		for _, k := range keys {
			item, ok, err := r.ReadItem(bg, k)
			if err != nil || !ok {
				t.Fatalf("read %q = %v, %v", k, ok, err)
			}
			reads = append(reads, kv.ObservedRead{Key: k, Version: item.Version, Found: true})
			writes = append(writes, kv.KeyValue{Key: k, Value: kv.Value(fmt.Sprintf("round-%d", round))})
		}
		res, err := r.CommitUpdate(bg, reads, writes)
		if err != nil || len(res.Deps) != len(writes) {
			t.Fatalf("round %d: CommitUpdate = %+v, %v", round, res, err)
		}
		for i, w := range writes {
			stored, _, err := rg.db.ReadItem(bg, w.Key)
			if err != nil || stored.Version != res.Version || !stored.Deps.Equal(res.Deps[i]) || len(res.Deps[i]) != len(keys)-1 {
				t.Errorf("round %d: %q answered %s@%s, the database stored %s@%s (%v)",
					round, w.Key, res.Deps[i], res.Version, stored.Deps, stored.Version, err)
			}
			if item, _, err := r.ReadItem(bg, w.Key); err != nil || item.Version != res.Version {
				t.Errorf("round %d: read of %q after the commit = %q@%s, %v; want version %s",
					round, w.Key, item.Value, item.Version, err, res.Version)
			}
		}
	}
	// ValidatedUpdate is the same call without the lists.
	v, err := r.ValidatedUpdate(bg, nil, []kv.KeyValue{{Key: keys[0], Value: kv.Value("blind")}})
	if stored, _, _ := rg.db.ReadItem(bg, keys[0]); err != nil || stored.Version != v {
		t.Fatalf("ValidatedUpdate = %s, %v; the database holds %s", v, err, stored.Version)
	}
}

// TestProbationWindowOnSimClock pins the probation window to the
// injected clock: with the simulation clock frozen the window can never
// expire, and one deterministic advance past it flips the node to up —
// no wall-clock sleeps racing the state transition.
func TestProbationWindowOnSimClock(t *testing.T) {
	r := newRig(t, 2)
	simc := clock.NewSimAtZero()
	cfg := fastConfig(r.addrs)
	cfg.Clock = simc
	cfg.FailThreshold = 1
	// Generous on the sim clock: the pump below advances it in
	// ProbeInterval steps, and the window must not expire while the test
	// is still catching the probation state.
	cfg.Probation = 5 * time.Minute

	router, err := cluster.NewRouter(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	// Pump the sim so the health machinery's timers fire while the test
	// waits in real time for the network round trips they trigger.
	pumpCtx, stopPump := context.WithCancel(bg)
	pumpDone := make(chan struct{})
	go func() {
		defer close(pumpDone)
		for pumpCtx.Err() == nil {
			simc.RunFor(cfg.ProbeInterval)
			time.Sleep(time.Millisecond)
		}
	}()
	freeze := func() {
		stopPump()
		<-pumpDone
	}
	defer freeze()

	r.kill(1)
	waitFor(t, 5*time.Second, "node ejection", func() bool {
		return router.Nodes()[1].State == cluster.NodeEjected
	})
	if err := r.restart(1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "re-admission into probation", func() bool {
		return router.Nodes()[1].State == cluster.NodeProbation
	})

	// Freeze virtual time: however long the test now waits in real time,
	// the node must stay in probation.
	freeze()
	for i := 0; i < 5; i++ {
		time.Sleep(10 * time.Millisecond)
		if s := router.Nodes()[1].State; s != cluster.NodeProbation {
			t.Fatalf("state = %s with frozen clock, want %s", s, cluster.NodeProbation)
		}
	}

	// One advance past the window ends probation, deterministically.
	simc.RunFor(cfg.Probation + time.Second)
	if s := router.Nodes()[1].State; s != cluster.NodeUp {
		t.Fatalf("state = %s after advancing past probation, want %s", s, cluster.NodeUp)
	}
}
