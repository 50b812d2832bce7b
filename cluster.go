package tcache

import (
	"context"
	"fmt"
	"os"
	"time"

	"tcache/internal/cluster"
	"tcache/internal/core"
	"tcache/internal/telemetry"
	"tcache/internal/transport"
)

// ClusterCache is a T-Cache whose backend is a whole fleet of tcached
// nodes instead of one database: a consistent-hash ring routes every
// miss fill (and the invalidation subscription) to the node owning the
// key, batch reads are split into per-node sub-batches, and a dead node
// is ejected and routed around while health probes work to re-admit it.
//
// It embeds *Cache, so the read API — ReadTxn, Get, GetMulti — is
// exactly the single-backend one; the paper's per-edge eq.1/eq.2 checks
// run unchanged in this local cache. What the fleet adds is horizontal
// capacity and availability, plus a failover guarantee of its own: a
// read re-routed off a dead (or freshly re-admitted) node carries the
// high-water version mark of its key range, so a survivor whose cache
// fell behind this client's history refetches from the database instead
// of serving versions the client has already seen invalidated
// (read-your-invalidations across failover).
type ClusterCache struct {
	*Cache
	router *cluster.Router
}

// clusterOptions collects DialCluster settings.
type clusterOptions struct {
	router cluster.Config
	cache  []CacheOption
}

// ClusterOption configures DialCluster.
type ClusterOption func(*clusterOptions)

// WithClusterPoolSize sets the multiplexed connection count per node
// (default 2).
func WithClusterPoolSize(n int) ClusterOption {
	return func(o *clusterOptions) { o.router.PoolSize = n }
}

// WithClusterFailThreshold sets how many consecutive transport failures
// eject a node from routing (default 3).
func WithClusterFailThreshold(n int) ClusterOption {
	return func(o *clusterOptions) { o.router.FailThreshold = n }
}

// WithClusterHealth sets the background health-check period and the
// per-probe timeout (defaults 500ms, 1s).
func WithClusterHealth(interval, timeout time.Duration) ClusterOption {
	return func(o *clusterOptions) {
		o.router.ProbeInterval = interval
		o.router.ProbeTimeout = timeout
	}
}

// WithClusterCacheOptions forwards options to the embedded local Cache
// (strategy, TTL, memory budget, shards, ...).
func WithClusterCacheOptions(opts ...CacheOption) ClusterOption {
	return func(o *clusterOptions) { o.cache = append(o.cache, opts...) }
}

// DialCluster connects to a fleet of tcached nodes and returns a
// ClusterCache attached to it — the multi-edge form of Dial + NewCache:
//
//	cc, err := tcache.DialCluster(ctx, []string{"edge1:7071", "edge2:7071", "edge3:7071"})
//	defer cc.Close()
//	err = cc.ReadTxn(ctx, func(tx *tcache.ReadTx) error { ... })
//
// Nodes that are down at dial time start ejected and join when their
// health probe succeeds; DialCluster fails only when no node is
// reachable. ctx bounds the initial dials.
func DialCluster(ctx context.Context, addrs []string, opts ...ClusterOption) (*ClusterCache, error) {
	o := clusterOptions{}
	o.router.Addrs = addrs
	for _, opt := range opts {
		opt(&o)
	}
	router, err := cluster.NewRouter(ctx, o.router)
	if err != nil {
		return nil, err
	}
	cache, err := NewCache(&clusterBackend{r: router}, o.cache...)
	if err != nil {
		router.Close()
		return nil, err
	}
	return &ClusterCache{Cache: cache, router: router}, nil
}

// Close shuts the local cache down, then the fleet clients.
func (c *ClusterCache) Close() {
	c.Cache.Close()
	c.router.Close()
}

// ClusterNode is one fleet member's health, as the router sees it.
type ClusterNode struct {
	Addr string
	// State is "up", "probation" (re-admitted, still serving floored
	// reads), or "ejected" (routed around, being re-probed).
	State string
	// ConsecutiveFails is the current transport-failure streak.
	ConsecutiveFails int
}

// Nodes returns each fleet member's health, in DialCluster order.
func (c *ClusterCache) Nodes() []ClusterNode {
	infos := c.router.Nodes()
	out := make([]ClusterNode, len(infos))
	for i, ni := range infos {
		out[i] = ClusterNode{Addr: ni.Addr, State: string(ni.State), ConsecutiveFails: ni.ConsecutiveFails}
	}
	return out
}

// ClusterNodeStats is one node's health plus its server-side metrics.
type ClusterNodeStats struct {
	ClusterNode
	// Stats are the node's metrics; empty when the node was unreachable.
	Stats ServerStats
	// Err is the stats-fetch failure, if any.
	Err string
}

// ClusterStats aggregates the whole tier's counters: the local cache's
// view plus every node's, summed and broken down.
type ClusterStats struct {
	// Local is the embedded cache's counters (what Cache.Stats alone
	// would report).
	Local Stats
	// Nodes is the per-node breakdown.
	Nodes []ClusterNodeStats
	// Aggregate merges every reachable node's metrics by name
	// (ServerStats.Merge): counters and histograms add, and gauges add
	// into a fleet total, such as cache_resident_bytes over all nodes.
	Aggregate ServerStats
}

// Stats returns the aggregated cluster metrics: unlike the embedded
// Cache.Stats (which it shadows), it merges every node's server-side
// metrics and exposes the per-node breakdown alongside the local view.
// Ejected nodes appear in the breakdown with their health state and no
// metrics. ctx bounds the per-node stats round trips.
func (c *ClusterCache) Stats(ctx context.Context) ClusterStats {
	nodeStats := c.router.Stats(ctx)
	out := ClusterStats{
		Local: c.Cache.Stats(),
		Nodes: make([]ClusterNodeStats, len(nodeStats)),
	}
	for i, ns := range nodeStats {
		out.Nodes[i] = ClusterNodeStats{
			ClusterNode: ClusterNode{Addr: ns.Addr, State: string(ns.State), ConsecutiveFails: ns.ConsecutiveFails},
			Stats:       ns.Stats,
			Err:         ns.Err,
		}
		out.Aggregate.Merge(ns.Stats)
	}
	return out
}

// clusterBackend adapts the router to the Backend interface (it lives
// here rather than in the cluster package so that package stays free of
// the public API's db-typed Invalidation).
type clusterBackend struct {
	r *cluster.Router
}

var (
	_ Backend      = (*clusterBackend)(nil)
	_ BatchBackend = (*clusterBackend)(nil)
)

func (b *clusterBackend) ReadItem(ctx context.Context, key Key) (Item, bool, error) {
	return b.r.ReadItem(ctx, key)
}

func (b *clusterBackend) ReadItems(ctx context.Context, keys []Key) ([]Lookup, error) {
	return b.r.ReadItems(ctx, keys)
}

// CommitUpdate relays an optimistic commit through a live edge node
// (which forwards it to the database and the database's answer back) and
// raises the router's per-range write marks, so this client's subsequent
// reads on ANY node are floored at its own commit — the cluster half of
// read-your-writes, for the keys the local cache does not hold. This is
// what makes ClusterCache.Update (inherited from the embedded Cache) work.
func (b *clusterBackend) CommitUpdate(ctx context.Context, reads []ObservedRead, writes []KeyValue) (CommitResult, error) {
	return b.r.CommitUpdate(ctx, reads, writes)
}

// ValidatedUpdate implements UpdaterBackend: CommitUpdate without the
// lists.
func (b *clusterBackend) ValidatedUpdate(ctx context.Context, reads []ObservedRead, writes []KeyValue) (Version, error) {
	return b.r.ValidatedUpdate(ctx, reads, writes)
}

func (b *clusterBackend) Subscribe(name string, sink func(Invalidation)) (cancel func(), err error) {
	return b.r.Subscribe(name, sink)
}

// setRoundTripHistogram forwards WithTelemetry's round-trip histogram
// to every fleet node's client.
func (b *clusterBackend) setRoundTripHistogram(h *telemetry.Histogram) {
	b.r.SetRoundTripHistogram(h)
}

// Edge is a programmatic tcached: a mid-tier cache node that fills from
// a (usually remote) database, applies and relays its invalidation
// stream, and serves both the transactional client protocol and the
// backend protocol cluster routers read through. ServeEdge is to
// cmd/tcached what ServeDB is to cmd/tdbd: the daemon runs the same
// code. Addr returns the bound listen address, Cache the node's cache,
// ServeMetrics starts its admin HTTP listener (/metrics, /healthz,
// /debug/pprof), and Close shuts everything down.
type Edge = transport.Edge

// ServeEdge starts an edge node: it dials the database at dbAddr,
// attaches a cache (configured by opts; only core cache options apply),
// subscribes to the invalidation stream — applying it locally and
// relaying it to downstream subscribers — and serves on listen (for
// example "127.0.0.1:0"). ctx bounds the initial dial and subscribe.
func ServeEdge(ctx context.Context, dbAddr, listen string, opts ...CacheOption) (*Edge, error) {
	o := cacheOptions{}
	o.core.Strategy = core.StrategyRetry
	for _, opt := range opts {
		opt(&o)
	}
	if o.name == "" {
		o.name = fmt.Sprintf("edge-%d-%d", os.Getpid(), _cacheSeq.Add(1))
	}
	e, err := transport.ServeEdge(ctx, transport.EdgeConfig{DB: dbAddr, Listen: listen, Cache: o.core, Name: o.name})
	if err != nil {
		return nil, fmt.Errorf("tcache: edge: %w", err)
	}
	return e, nil
}
