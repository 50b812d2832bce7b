package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"tcache"
	"tcache/internal/cluster"
	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/kv"
	"tcache/internal/telemetry"
	"tcache/internal/transport"
)

// edgeNode is what the harness needs of an edge: tcache.ServeEdge's
// *tcache.Edge in the untraced topology, a hand-built tracedEdge with
// the edge seam interposed in the traced one.
type edgeNode interface {
	Addr() string
	Cache() *core.Cache
	Close()
}

type topoConfig struct {
	dir            string // fresh directory; the two WALs go under it
	clientMaxBytes int64  // 0 = unbounded
	edgeMaxBytes   int64
	// tracer selects the construction: nil builds the production
	// topology (ServeEdge, DialCluster); non-nil builds the same
	// topology by hand with the client and edge seams interposed.
	tracer *tracer
}

// topology is the in-process loopback deployment every socket workload
// drives: client → router → 3 edges → durable primary (fsync on) →
// synchronous warm standby. Every hop is a real 127.0.0.1 TCP socket.
type topology struct {
	primary, standby *tcache.DB
	dbAddr           string
	edges            []edgeNode
	client           *tcache.Cache
	router           *cluster.Router // traced topology only
	closers          []func()
}

func (t *topology) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
	t.closers = nil
}

func (t *topology) onClose(f func()) { t.closers = append(t.closers, f) }

func buildTopology(ctx context.Context, cfg topoConfig) (_ *topology, err error) {
	t := &topology{}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	t.onClose(func() { os.RemoveAll(cfg.dir) })

	t.primary, err = tcache.OpenDurableDB(filepath.Join(cfg.dir, "primary"),
		func(c *db.Config) { c.ReplMinSync = 1 })
	if err != nil {
		return nil, fmt.Errorf("open primary: %w", err)
	}
	t.onClose(func() { _ = t.primary.Close() }) // scratch database, deleted right after: a flush error loses nothing
	if tr := cfg.tracer; tr != nil {
		t.primary.Core().OnCommit(func(rec db.CommitRecord) { tr.lagEvent(rec.Version.Counter, tr.now(), 0) })
	}
	addr, stopDB, err := tcache.ServeDB(t.primary, "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve primary: %w", err)
	}
	t.dbAddr = addr
	t.onClose(stopDB)

	t.standby, err = tcache.OpenDurableDB(filepath.Join(cfg.dir, "standby"),
		func(c *db.Config) { c.NodeID = 1 })
	if err != nil {
		return nil, fmt.Errorf("open standby: %w", err)
	}
	t.onClose(func() { _ = t.standby.Close() })
	t.standby.Core().SetStandby(addr)
	sctx, cancelStandby := context.WithCancel(context.Background())
	standbyDone := make(chan struct{})
	go func() {
		defer close(standbyDone)
		transport.RunStandby(sctx, t.standby.Core(), transport.StandbyConfig{Primary: addr, Name: "bench-standby"})
	}()
	t.onClose(func() { cancelStandby(); <-standbyDone })

	// With ReplMinSync=1 a commit only succeeds once the standby has
	// joined; the first one that does proves the pipeline is live.
	deadline := time.Now().Add(10 * time.Second)
	for {
		pctx, cancel := context.WithTimeout(ctx, time.Second)
		_, err := t.primary.ValidatedUpdate(pctx, nil, []kv.KeyValue{{Key: "bench-probe", Value: kv.Value("up")}})
		cancel()
		if err == nil {
			break
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return nil, fmt.Errorf("replication pipeline never came up: %w", err)
		}
	}

	addrs := make([]string, edgeNodes)
	for i := range addrs {
		var e edgeNode
		if cfg.tracer == nil {
			var opts []tcache.CacheOption
			if cfg.edgeMaxBytes > 0 {
				opts = append(opts, tcache.WithMaxBytes(cfg.edgeMaxBytes))
			}
			e, err = tcache.ServeEdge(ctx, addr, "127.0.0.1:0", opts...)
		} else {
			e, err = serveTracedEdge(ctx, addr, i, cfg.edgeMaxBytes, cfg.tracer)
		}
		if err != nil {
			return nil, fmt.Errorf("edge %d: %w", i, err)
		}
		t.edges = append(t.edges, e)
		t.onClose(e.Close)
		addrs[i] = e.Addr()
	}

	// Telemetry attached is the production default, so every
	// end-to-end number includes its cost.
	copts := []tcache.CacheOption{tcache.WithTelemetry(tcache.NewTelemetry())}
	if cfg.clientMaxBytes > 0 {
		copts = append(copts, tcache.WithMaxBytes(cfg.clientMaxBytes))
	}
	pool := runtime.GOMAXPROCS(0)
	if cfg.tracer == nil {
		cc, err := tcache.DialCluster(ctx, addrs, tcache.WithClusterPoolSize(pool), tcache.WithClusterCacheOptions(copts...))
		if err != nil {
			return nil, fmt.Errorf("dial cluster: %w", err)
		}
		t.client = cc.Cache
		t.onClose(cc.Close)
		return t, nil
	}
	t.router, err = cluster.NewRouter(ctx, cluster.Config{Addrs: addrs, PoolSize: pool})
	if err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	t.onClose(t.router.Close)
	// DialCluster wires the telemetry's round-trip histogram into the
	// router through an unexported hook; give the router one of its own
	// so the traced client pays the same per-call cost.
	t.router.SetRoundTripHistogram(&telemetry.Histogram{})
	t.client, err = tcache.NewCache(&clientSeam{r: t.router, tr: cfg.tracer}, copts...)
	if err != nil {
		return nil, fmt.Errorf("client cache: %w", err)
	}
	t.onClose(t.client.Close)
	return t, nil
}

// tracedEdge is tcache.ServeEdge rebuilt from the same exported parts
// with the edge seam between the cache and its DBClient.
type tracedEdge struct {
	addr    string
	backend *transport.DBClient
	cache   *core.Cache
	srv     *transport.CacheServer
	unsub   func()
}

func serveTracedEdge(ctx context.Context, dbAddr string, idx int, maxBytes int64, tr *tracer) (*tracedEdge, error) {
	backend, err := transport.DialDB(ctx, dbAddr, 4)
	if err != nil {
		return nil, err
	}
	seam := &edgeSeam{b: backend, tr: tr, buf: tr.newBuf(spanCap / edgeNodes)}
	cache, err := core.New(core.Config{Backend: seam, Strategy: core.StrategyRetry, MaxBytes: maxBytes})
	if err != nil {
		backend.Close()
		return nil, err
	}
	srv := transport.NewCacheServer(cache, nil)
	reg := telemetry.NewRegistry()
	cache.RegisterMetrics(reg)
	srv.RegisterMetrics(reg)
	srv.SetRegistry(reg)
	unsub, err := transport.SubscribeInvalidations(ctx, dbAddr, fmt.Sprintf("bench-edge-%d-%d", os.Getpid(), idx),
		func(inv transport.Invalidation) {
			cache.Invalidate(inv.Key, inv.Version)
			srv.Broadcast(inv)
		})
	if err != nil {
		cache.Close()
		backend.Close()
		return nil, err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		unsub()
		cache.Close()
		backend.Close()
		return nil, err
	}
	return &tracedEdge{addr: addr, backend: backend, cache: cache, srv: srv, unsub: unsub}, nil
}

func (e *tracedEdge) Addr() string       { return e.addr }
func (e *tracedEdge) Cache() *core.Cache { return e.cache }
func (e *tracedEdge) Close() {
	e.srv.Close()
	e.unsub()
	e.cache.Close()
	e.backend.Close()
}

// seed commits the data set to the primary in batches, through real
// transactions, so it is in the WAL and on the standby like any other
// committed state.
func (t *topology) seed(ctx context.Context, d *dataset) error {
	const batch = 100
	for lo := 0; lo < len(d.keys); lo += batch {
		hi := min(lo+batch, len(d.keys))
		writes := make([]kv.KeyValue, 0, hi-lo)
		for i := lo; i < hi; i++ {
			writes = append(writes, kv.KeyValue{Key: d.keys[i], Value: d.values[i]})
		}
		if _, err := t.primary.ValidatedUpdate(ctx, nil, writes); err != nil {
			return fmt.Errorf("seed [%d,%d): %w", lo, hi, err)
		}
	}
	return nil
}

// counters is one sample of every layer's exported counters.
type counters struct {
	client  core.MetricsSnapshot
	edges   []core.MetricsSnapshot
	db      db.MetricsSnapshot
	mallocs uint64
}

func (t *topology) counters() counters {
	c := counters{client: t.client.Stats(), db: t.primary.Core().Metrics()}
	for _, e := range t.edges {
		c.edges = append(c.edges, e.Cache().Metrics())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	return c
}

// subCounters returns a-b field by field for a struct of uint64
// counters (the layers' MetricsSnapshot types).
func subCounters[T any](a, b T) T {
	var out T
	va, vb, vo := reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(&out).Elem()
	for i := 0; i < va.NumField(); i++ {
		vo.Field(i).SetUint(va.Field(i).Uint() - vb.Field(i).Uint())
	}
	return out
}

// sub returns the counter deltas after-before, with the edges summed
// into edgeSum and each edge's share of edge reads kept for
// cluster.node_share_max.
func (after counters) sub(before counters) (d counters, edgeSum core.MetricsSnapshot, shareMax float64) {
	d.client = subCounters(after.client, before.client)
	d.db = subCounters(after.db, before.db)
	d.mallocs = after.mallocs - before.mallocs
	sum := reflect.ValueOf(&edgeSum).Elem()
	var maxReads uint64
	for i := range after.edges {
		e := subCounters(after.edges[i], before.edges[i])
		d.edges = append(d.edges, e)
		ve := reflect.ValueOf(e)
		for f := 0; f < ve.NumField(); f++ {
			sum.Field(f).SetUint(sum.Field(f).Uint() + ve.Field(f).Uint())
		}
		maxReads = max(maxReads, e.Reads)
	}
	if edgeSum.Reads > 0 {
		shareMax = float64(maxReads) / float64(edgeSum.Reads)
	}
	return d, edgeSum, shareMax
}

// standbyMatches reports the first key whose committed value or version
// differs between primary and standby, after the standby has applied
// everything the primary committed.
func (t *topology) standbyMatches(keys []tcache.Key) error {
	p, s := t.primary.Core(), t.standby.Core()
	deadline := time.Now().Add(5 * time.Second)
	for s.VersionCounter() < p.VersionCounter() {
		if time.Now().After(deadline) {
			return fmt.Errorf("standby stuck at version %d, primary at %d", s.VersionCounter(), p.VersionCounter())
		}
		time.Sleep(time.Millisecond)
	}
	for _, k := range keys {
		pi, pok := p.Get(k)
		si, sok := s.Get(k)
		if pok != sok || pi.Version != si.Version || !bytes.Equal(pi.Value, si.Value) {
			return fmt.Errorf("standby differs from primary at %q: %v/%v vs %v/%v", k, pi.Version, pok, si.Version, sok)
		}
	}
	return nil
}

// liveHeapMB is HeapAlloc after a forced collection: what the process
// retains, not what it happens to have allocated since the last cycle.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
