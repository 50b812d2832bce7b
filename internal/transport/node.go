package transport

// The two deployable nodes, each assembled in exactly one place: the
// edge (what cmd/tcached and tcache.ServeEdge run) and the database
// node (cmd/tdbd and tcache.ServeDB). The daemons are flag parsing over
// these functions.

import (
	"context"
	"fmt"

	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/telemetry"
)

// EdgeConfig configures ServeEdge.
type EdgeConfig struct {
	// DB is the backend database's address; Listen is where the edge
	// serves (for example "127.0.0.1:0").
	DB, Listen string
	// Cache configures the edge's cache; ServeEdge fills in its Backend.
	Cache core.Config
	// Name is the subscriber name registered with the backend; it must
	// be unique there.
	Name string
	// BackendConns is the backend connection pool size (0 means 4).
	BackendConns int
	// Logf, if set, receives the server's connection-level messages.
	Logf func(format string, args ...any)
}

// Edge is a running edge node: a cache that fills from a remote
// database, applies and relays its invalidation stream, and serves both
// the transactional client protocol and the backend protocol cluster
// routers read through.
type Edge struct {
	addr  string
	cache *core.Cache
	srv   *CacheServer
	stop  []func() // teardown steps, run in reverse
}

// ServeEdge starts an edge node: it dials the database, attaches a
// cache, subscribes to the invalidation stream — applying it locally
// and relaying it to downstream subscribers — and serves on cfg.Listen.
// ctx bounds the initial dial and subscribe.
func ServeEdge(ctx context.Context, cfg EdgeConfig) (_ *Edge, err error) {
	e := &Edge{}
	defer func() {
		if err != nil {
			e.Close()
		}
	}()
	conns := cfg.BackendConns
	if conns == 0 {
		conns = 4
	}
	backend, err := DialDB(ctx, cfg.DB, conns)
	if err != nil {
		return nil, err
	}
	e.stop = append(e.stop, backend.Close)

	cfg.Cache.Backend = backend
	if e.cache, err = core.New(cfg.Cache); err != nil {
		return nil, err
	}
	e.stop = append(e.stop, e.cache.Close)

	// One registry per edge, served over OpStats and by ServeMetrics: the
	// cache's and the relay's metrics (the server's own default) plus the
	// backend conn pool.
	e.srv = NewCacheServer(e.cache, cfg.Logf)
	reg := e.srv.Registry()
	reg.Gauge("backend_pool_size", func() uint64 { return uint64(backend.PoolSize()) })
	reg.Gauge("backend_pool_live", func() uint64 { return uint64(backend.LiveConns()) })

	unsub, err := SubscribeInvalidations(ctx, cfg.DB, cfg.Name, func(inv Invalidation) {
		e.cache.Invalidate(inv.Key, inv.Version)
		e.srv.Broadcast(inv)
	})
	if err != nil {
		return nil, fmt.Errorf("subscribe to %s: %w", cfg.DB, err)
	}
	e.stop = append(e.stop, unsub)

	if e.addr, err = e.srv.Listen(cfg.Listen); err != nil {
		return nil, err
	}
	e.stop = append(e.stop, e.srv.Close)
	return e, nil
}

// Addr returns the edge's bound listen address.
func (e *Edge) Addr() string { return e.addr }

// Cache exposes the edge's cache for metrics.
func (e *Edge) Cache() *core.Cache { return e.cache }

// Registry returns the registry the edge's OpStats and /metrics serve.
func (e *Edge) Registry() *telemetry.Registry { return e.srv.Registry() }

// ServeMetrics starts the edge's admin HTTP listener at addr: /metrics
// serves the node's registry (hit/miss counters, read latency
// histograms, relay and conn-pool gauges), /healthz answers role=edge,
// and /debug/pprof serves the runtime profiles. It returns the bound
// address and a stop function — tcached's -metrics-addr flag.
func (e *Edge) ServeMetrics(addr string) (bound string, stop func(), err error) {
	return telemetry.ServeAdmin(addr, e.srv.Registry(), func() telemetry.Health {
		return telemetry.Health{Healthy: true, Role: "edge"}
	})
}

// Close stops serving, detaches from the invalidation stream, and shuts
// the cache and backend connections down.
func (e *Edge) Close() {
	for i := len(e.stop) - 1; i >= 0; i-- {
		e.stop[i]()
	}
	e.stop = nil
}

// DBNodeConfig configures ServeDB.
type DBNodeConfig struct {
	// Listen is the address to serve on.
	Listen string
	// Standby, when its Primary is set, makes the node a warm standby of
	// that primary for its whole life (or until promoted). An empty Name
	// defaults to the bound listen address, a nil Logf to Logf below.
	Standby StandbyConfig
	// Logf, if set, receives the server's connection-level messages.
	Logf func(format string, args ...any)
}

// DBNode is a database served over TCP, with its standby loop if it has
// one. The database itself stays the caller's to close, after the node.
type DBNode struct {
	d           *db.DB
	srv         *DBServer
	addr        string
	stopStandby func()
}

// ServeDB serves d on cfg.Listen and, for a standby, starts replicating
// from its primary.
func ServeDB(d *db.DB, cfg DBNodeConfig) (*DBNode, error) {
	sc := cfg.Standby
	if sc.Primary != "" {
		// The role must be set before the first request is accepted: a
		// write that lands in the gap would mint a version the primary
		// never saw.
		d.SetStandby(sc.Primary)
	}
	n := &DBNode{d: d, srv: NewDBServer(d, cfg.Logf), stopStandby: func() {}}
	addr, err := n.srv.Listen(cfg.Listen)
	if err != nil {
		return nil, err
	}
	n.addr = addr
	if sc.Primary != "" {
		if sc.Name == "" {
			sc.Name = addr
		}
		if sc.Logf == nil {
			sc.Logf = cfg.Logf
		}
		//lint:ignore ctxdiscipline the standby loop lives as long as the node and is cancelled by Close
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			RunStandby(ctx, d, sc)
		}()
		n.stopStandby = func() {
			cancel()
			<-done
		}
	}
	return n, nil
}

// Addr returns the node's bound listen address.
func (n *DBNode) Addr() string { return n.addr }

// Registry returns the registry the node's OpStats and /metrics serve.
func (n *DBNode) Registry() *telemetry.Registry { return n.srv.Registry() }

// ServeMetrics starts the node's admin HTTP listener at addr: /metrics
// serves the registry OpStats answers from, /healthz is role-aware (a
// standby answers 200 and says so; a sticky WAL error turns it 503), and
// /debug/pprof serves the runtime profiles — tdbd's -metrics-addr flag.
func (n *DBNode) ServeMetrics(addr string) (bound string, stop func(), err error) {
	return telemetry.ServeAdmin(addr, n.srv.Registry(), n.d.AdminHealth)
}

// Close stops the standby loop, then the listener and every connection.
func (n *DBNode) Close() {
	n.stopStandby()
	n.srv.Close()
}
