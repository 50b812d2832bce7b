package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tcache/internal/clock"
	"tcache/internal/db"
	"tcache/internal/kv"
	"tcache/internal/telemetry"
	"tcache/internal/transport"
)

// ErrNoNodes reports that every cluster node is ejected or unreachable.
var ErrNoNodes = errors.New("cluster: no live nodes")

// rangeBits partitions the hash circle into 2^rangeBits key ranges, each
// carrying a high-water version mark — the newest commit version the
// router has observed (served reads plus relayed invalidations) for keys
// hashing into the range. On a failover read the mark becomes the read
// floor: the surviving node must serve at least that version or refetch
// from the database, so a node whose cache fell behind can never hand
// the client data older than the client's own history.
const rangeBits = 8

const numRanges = 1 << rangeBits

func rangeOf(hash uint64) int { return int(hash >> (64 - rangeBits)) }

// Config configures a Router.
type Config struct {
	// Addrs are the tcached nodes the key space is sharded over.
	// Required; duplicates error.
	Addrs []string
	// VNodes is the virtual-node count per member (0 = DefaultVNodes).
	VNodes int
	// PoolSize is the multiplexed connection count per node (0 = 2).
	PoolSize int
	// FailThreshold is the consecutive transport-failure count that
	// ejects a node (0 = 3).
	FailThreshold int
	// ProbeInterval is the health-check period: every node, live or
	// ejected, is pinged once per interval (0 = 500ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health-check ping (0 = 1s).
	ProbeTimeout time.Duration
	// Probation is how long a freshly re-admitted node keeps serving
	// floored reads: while it may have missed invalidations during its
	// absence, the floor forces it to prove (or refetch) freshness
	// (0 = 10s).
	Probation time.Duration
	// Clock is the time source for probation windows and the
	// health-check timers (nil = wall clock). Tests inject a simulated
	// clock so health transitions are deterministic instead of racing
	// real sleeps.
	Clock clock.Clock
	// Logf, if set, receives node state transitions.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.PoolSize <= 0 {
		c.PoolSize = 2
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.Probation <= 0 {
		c.Probation = 10 * time.Second
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// NodeState labels a node's health.
type NodeState string

// Node states.
const (
	// NodeUp is a healthy node serving its key ranges.
	NodeUp NodeState = "up"
	// NodeProbation is a re-admitted node still serving floored reads.
	NodeProbation NodeState = "probation"
	// NodeEjected is a node removed from routing, still pinged every
	// ProbeInterval; its key ranges are served by ring successors.
	NodeEjected NodeState = "ejected"
)

// node is one tcached member with its health state.
type node struct {
	addr string
	// clk stamps and checks the probation window (the router's Clock).
	clk clock.Clock
	// cli is nil until the first successful dial (a node may be down at
	// DialCluster time and join later through its watcher, the only
	// writer after NewRouter).
	cli atomic.Pointer[transport.DBClient]
	// ejected removes the node from routing.
	ejected atomic.Bool
	// fails counts consecutive transport failures.
	fails atomic.Int32
	// probationUntil is the UnixNano deadline of the post-re-admission
	// floored-reads window (0 = none).
	probationUntil atomic.Int64
}

func (n *node) available() bool {
	return !n.ejected.Load() && n.cli.Load() != nil
}

func (n *node) inProbation() bool {
	p := n.probationUntil.Load()
	return p != 0 && n.clk.Now().UnixNano() < p
}

func (n *node) state() NodeState {
	switch {
	case n.ejected.Load() || n.cli.Load() == nil:
		return NodeEjected
	case n.inProbation():
		return NodeProbation
	default:
		return NodeUp
	}
}

// Router shards reads over a fleet of tcached nodes. It implements the
// cache Backend contract (ReadItem, ReadItems, Subscribe-style streams),
// so a local T-Cache attaches to a whole fleet exactly as it would to
// one database: the per-edge eq.1/eq.2 checks run unchanged in the local
// cache, while the router below it handles placement, health, and
// failover.
type Router struct {
	cfg  Config
	ring *Ring
	node []*node

	// hw are the per-range high-water marks; see rangeBits.
	hw [numRanges]atomic.Pointer[kv.Version]

	// upNext rotates update relays round-robin over the nodes.
	upNext atomic.Uint64

	// wm are the per-range write marks: versions this client's own
	// committed updates produced (and the committed versions its
	// validation conflicts revealed). Unlike hw — which guards only
	// failover reads — a write mark floors EVERY read of its range, home
	// node included: the home node learns of the commit through the same
	// asynchronous invalidation stream as everyone else, so without the
	// floor a client could commit a write and read the stale value
	// straight back from its own home node. Raised only by the write
	// path, so read-only deployments never pay for it.
	wm [numRanges]atomic.Pointer[kv.Version]

	// ctx parents the node watchers and subscription streams; Close
	// cancels it.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	subs transport.SubGroup

	// rtHist, when set, times every node's wire round trips — applied to
	// live clients and to any client a watcher dials later.
	rtHist atomic.Pointer[telemetry.Histogram]

	// scratch recycles ReadItems' working memory (*readScratch).
	scratch sync.Pool
}

// SetRoundTripHistogram wires h into every node client, current and
// future, so a fleet's round trips aggregate into one histogram.
func (r *Router) SetRoundTripHistogram(h *telemetry.Histogram) {
	r.rtHist.Store(h)
	for _, n := range r.node {
		if cli := n.cli.Load(); cli != nil {
			cli.SetRoundTripHistogram(h)
		}
	}
}

// NewRouter builds the fleet client: a ring over cfg.Addrs, one
// multiplexed DBClient per node and one health watcher per node. Nodes
// that cannot be dialed start ejected and join when their watcher's
// ping succeeds; only a fleet with zero reachable nodes fails. ctx
// bounds the initial dials.
func NewRouter(ctx context.Context, cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Addrs, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	//lint:ignore ctxdiscipline the router outlives any single caller; its lifetime ends at Close, which calls cancel
	rctx, cancel := context.WithCancel(context.Background())
	r := &Router{
		cfg:    cfg,
		ring:   ring,
		node:   make([]*node, len(cfg.Addrs)),
		ctx:    rctx,
		cancel: cancel,
	}
	r.scratch.New = func() any { return &readScratch{groups: make([]subBatch, 2*len(cfg.Addrs))} }
	live := 0
	for i, addr := range cfg.Addrs {
		n := &node{addr: addr, clk: cfg.Clock}
		r.node[i] = n
		cli, derr := r.dial(ctx, addr)
		if derr != nil {
			cfg.Logf("cluster: node %s unreachable at start: %v", addr, derr)
			n.ejected.Store(true)
			continue
		}
		n.cli.Store(cli)
		live++
	}
	if live == 0 {
		r.Close()
		return nil, fmt.Errorf("%w: none of %d nodes reachable", ErrNoNodes, len(cfg.Addrs))
	}
	r.wg.Add(len(r.node))
	for _, n := range r.node {
		go r.watch(n)
	}
	return r, nil
}

// dial connects to one node. Nodes fail fast to this router's health
// machinery: one redial per call, short backoff, instead of every
// caller nursing a flapping node through long retry loops.
func (r *Router) dial(ctx context.Context, addr string) (*transport.DBClient, error) {
	return transport.DialDB(ctx, addr, r.cfg.PoolSize,
		transport.WithMaxRedials(1), transport.WithRedialBackoff(time.Millisecond))
}

// Close stops health checking and subscriptions and closes every node
// client.
func (r *Router) Close() {
	r.cancel()
	r.subs.Close()
	r.wg.Wait()
	for _, n := range r.node {
		if cli := n.cli.Load(); cli != nil {
			cli.Close()
		}
	}
}

// Nodes returns each node's address and current health state, in
// configuration order.
func (r *Router) Nodes() []NodeInfo {
	out := make([]NodeInfo, len(r.node))
	for i, n := range r.node {
		out[i] = NodeInfo{Addr: n.addr, State: n.state(), ConsecutiveFails: int(n.fails.Load())}
	}
	return out
}

// NodeInfo describes one node's health.
type NodeInfo struct {
	Addr             string
	State            NodeState
	ConsecutiveFails int
}

// --- Watermarks ---------------------------------------------------------

// raiseMark lifts a per-range mark to at least v. Raising allocates one
// Version box; the steady state (no newer version) is a single atomic
// load.
func raiseMark(p *atomic.Pointer[kv.Version], v kv.Version) {
	if v.IsZero() {
		return
	}
	for {
		cur := p.Load()
		if cur != nil && !cur.Less(v) {
			return
		}
		nv := v
		if p.CompareAndSwap(cur, &nv) {
			return
		}
	}
}

func loadMark(p *atomic.Pointer[kv.Version]) kv.Version {
	if v := p.Load(); v != nil {
		return *v
	}
	return kv.Version{}
}

// observe raises the high-water mark of rg to at least v.
func (r *Router) observe(rg int, v kv.Version) { raiseMark(&r.hw[rg], v) }

// floorFor returns the high-water mark of rg (zero when none recorded).
func (r *Router) floorFor(rg int) kv.Version { return loadMark(&r.hw[rg]) }

// observeWrite raises the write mark of rg to at least v.
func (r *Router) observeWrite(rg int, v kv.Version) { raiseMark(&r.wm[rg], v) }

// readFloor is the floor a read of range rg must carry: always at least
// the range's write mark (read-your-writes), plus the failover
// high-water mark when the read is routed off its home node or onto a
// probation node.
func (r *Router) readFloor(rg int, offHome bool) kv.Version {
	f := loadMark(&r.wm[rg])
	if offHome {
		f = kv.Max(f, r.floorFor(rg))
	}
	return f
}

// --- Health -------------------------------------------------------------

// recordFailure counts one transport failure against n, ejecting it at
// the threshold; its watcher keeps pinging it.
func (r *Router) recordFailure(n *node) {
	if int(n.fails.Add(1)) < r.cfg.FailThreshold {
		return
	}
	if n.ejected.CompareAndSwap(false, true) {
		r.cfg.Logf("cluster: node %s ejected after %d consecutive failures", n.addr, r.cfg.FailThreshold)
	}
}

func (n *node) recordSuccess() {
	if n.fails.Load() != 0 {
		n.fails.Store(0)
	}
}

// watch is n's health loop for the router's lifetime: every
// ProbeInterval it pings n, so a quiet cluster still notices a dead node
// before the next client read does. A live node's failed ping counts
// toward FailThreshold; an ejected node that answers a ping begun while
// it was out is re-admitted into probation — it serves again, but with
// read floors attached until Probation elapses, since it may have
// missed invalidations while out.
func (r *Router) watch(n *node) {
	defer r.wg.Done()
	for waitClock(r.ctx, r.cfg.Clock, r.cfg.ProbeInterval) {
		wasEjected := n.ejected.Load()
		err := r.ping(n)
		switch {
		case err == nil && wasEjected:
			n.probationUntil.Store(r.cfg.Clock.Now().Add(r.cfg.Probation).UnixNano())
			n.fails.Store(0)
			n.ejected.Store(false)
			r.cfg.Logf("cluster: node %s re-admitted (probation %v)", n.addr, r.cfg.Probation)
		case err == nil:
			n.recordSuccess()
		case !wasEjected && r.ctx.Err() == nil &&
			(errors.Is(err, transport.ErrUnavailable) || errors.Is(err, context.DeadlineExceeded)):
			// The ping owns its deadline, so DeadlineExceeded here means the
			// node held the connection open but never answered — the
			// fail-slow case the probe timeout exists to catch; only a dying
			// router (r.ctx cancelled) makes the error meaningless.
			r.recordFailure(n)
		}
	}
}

// waitClock blocks for d on clk, reporting false if ctx was cancelled
// first. Built on Clock.AfterFunc so an injected simulation clock drives
// the health machinery deterministically.
func waitClock(ctx context.Context, clk clock.Clock, d time.Duration) bool {
	fired := make(chan struct{})
	t := clk.AfterFunc(d, func() { close(fired) })
	select {
	case <-ctx.Done():
		t.Stop()
		return false
	case <-fired:
		return true
	}
}

// ping checks n within ProbeTimeout, dialing its client first if the
// node was never reached.
func (r *Router) ping(n *node) error {
	ctx, cancel := context.WithTimeout(r.ctx, r.cfg.ProbeTimeout)
	defer cancel()
	cli := n.cli.Load()
	if cli == nil {
		var err error
		if cli, err = r.dial(ctx, n.addr); err != nil {
			return err
		}
		// Store before loading rtHist: SetRoundTripHistogram stores first
		// and loads the clients after, so one of the two sees the other.
		n.cli.Store(cli)
		if h := r.rtHist.Load(); h != nil {
			cli.SetRoundTripHistogram(h)
		}
	}
	return cli.Ping(ctx)
}

// --- Routing ------------------------------------------------------------

// ReadItem implements the Backend read: route key to its ring owner and
// read it there, failing over clockwise to the next live node when the
// owner is down — the one-key form of ReadItems, on the same serveFor
// walk and per-call exclusion. Off-owner reads (and reads on a
// probation node) carry the range's high-water floor, so a survivor
// whose cache is behind the client's history refetches from the
// database instead of serving stale data. The routing decision itself
// never allocates.
func (r *Router) ReadItem(ctx context.Context, key kv.Key) (kv.Item, bool, error) {
	hash := KeyHash(key)
	rg := rangeOf(hash)
	var excluded memberSet
	lastErr := ErrNoNodes
	for {
		m, floored, ok := r.serveFor(hash, &excluded)
		if !ok {
			return kv.Item{}, false, fmt.Errorf("cluster: read %q: %w", key, lastErr)
		}
		n := r.node[m]
		item, found, err := n.cli.Load().ReadItemFloor(ctx, key, r.readFloor(rg, floored))
		if err == nil {
			n.recordSuccess()
			if found {
				r.observe(rg, item.Version)
			}
			return item, found, nil
		}
		if ctx.Err() != nil || !errors.Is(err, transport.ErrUnavailable) {
			// Cancelled, or the node answered: an application-level error
			// is not a health signal, and another node would answer the same.
			return kv.Item{}, false, err
		}
		r.recordFailure(n)
		excluded.add(m)
		lastErr = err
	}
}

// serveFor returns the node index that currently serves hash, walking
// the ring past unavailable members and members in excluded (nodes that
// already failed within the calling read — ejection needs a failure
// streak, but one call must route around a dead node at the first
// failure), and whether the read needs the range floor (off-owner
// or probation). ok is false when no node remains. Never allocates.
func (r *Router) serveFor(hash uint64, excluded *memberSet) (member int, floored, ok bool) {
	home := -1
	var seen memberSet
	for pi, steps := r.ring.Start(hash), 0; steps < r.ring.NumPoints(); pi, steps = r.ring.NextPoint(pi), steps+1 {
		m := r.ring.PointMember(pi)
		if !seen.add(m) {
			continue
		}
		if home == -1 {
			home = m
		}
		n := r.node[m]
		if !n.available() || excluded.has(m) {
			continue
		}
		return m, m != home || n.inProbation(), true
	}
	return 0, false, false
}

// ReadItems implements the batch Backend read: keys are grouped into
// per-node sub-batches (floored and unfloored separately), every
// sub-batch is put on the wire from the calling goroutine before the
// first answer is awaited, and the results are reassembled in request
// order. A sub-batch that fails on a dead node is re-routed to the
// survivors and retried; only a fleet-wide outage or an
// application-level error fails the call.
func (r *Router) ReadItems(ctx context.Context, keys []kv.Key) ([]kv.Lookup, error) {
	sc := r.scratch.Get().(*readScratch)
	defer r.release(sc)
	out := make([]kv.Lookup, len(keys))
	sc.hashes, sc.remaining = sc.hashes[:0], sc.remaining[:0]
	for i, k := range keys {
		sc.hashes = append(sc.hashes, KeyHash(k))
		sc.remaining = append(sc.remaining, i)
	}
	// Each round assigns the remaining keys to live nodes and runs the
	// sub-batches; keys on a node that died mid-round roll into the next
	// round, which routes around it — via the per-call exclusion set the
	// moment it fails once (global ejection needs a failure streak, so a
	// 2-node fleet would otherwise burn every round on the same dead
	// node and error with survivors standing by). Each failing round
	// excludes at least one more member, so len(node) rounds bound the
	// walk even if every node dies in sequence.
	var excluded memberSet
	for round := 0; len(sc.remaining) > 0 && round <= len(r.node); round++ {
		sc.resetGroups()
		for _, i := range sc.remaining {
			m, floored, ok := r.serveFor(sc.hashes[i], &excluded)
			if !ok {
				return nil, fmt.Errorf("cluster: read batch: %w", ErrNoNodes)
			}
			gk := m << 1
			if floored {
				gk |= 1
			}
			g := &sc.groups[gk]
			if len(g.idx) == 0 {
				sc.used = append(sc.used, gk)
				g.floor = kv.Version{}
			}
			g.keys = append(g.keys, keys[i])
			g.idx = append(g.idx, i)
			if f := r.readFloor(rangeOf(sc.hashes[i]), floored); g.floor.Less(f) {
				g.floor = f
			}
		}
		for _, gk := range sc.used {
			g := &sc.groups[gk]
			r.node[gk>>1].cli.Load().StartReadItemsFloor(ctx, &g.call, g.keys, g.floor)
		}
		// Every started sub-batch is collected, even past a failure, so none
		// is left holding a connection slot or the scratch's key slices.
		sc.remaining = sc.remaining[:0]
		var failed error
		for _, gk := range sc.used {
			g, n := &sc.groups[gk], r.node[gk>>1]
			lookups, err := g.call.Wait(ctx)
			switch {
			case err == nil:
				n.recordSuccess()
				for j, lu := range lookups {
					i := g.idx[j]
					out[i] = lu
					if lu.Found {
						r.observe(rangeOf(sc.hashes[i]), lu.Item.Version)
					}
				}
			case ctx.Err() != nil || !errors.Is(err, transport.ErrUnavailable):
				// Cancelled, or the node answered: an application-level error
				// is not a health signal, and another node would answer the same.
				if failed == nil {
					failed = err
				}
			default:
				r.recordFailure(n)
				excluded.add(gk >> 1)
				sc.remaining = append(sc.remaining, g.idx...)
			}
		}
		if failed != nil {
			return nil, failed
		}
	}
	if len(sc.remaining) > 0 {
		return nil, fmt.Errorf("cluster: read batch: %w", ErrNoNodes)
	}
	return out, nil
}

// readScratch is the working memory of one ReadItems call, pooled per
// router.
type readScratch struct {
	hashes    []uint64 // per requested key
	remaining []int    // key indices not yet answered
	// groups is the sub-batch table, indexed member<<1|floored; used lists
	// the entries filled this round, in send order.
	groups []subBatch
	used   []int
}

// resetGroups empties the sub-batches the last round filled.
func (sc *readScratch) resetGroups() {
	for _, gk := range sc.used {
		g := &sc.groups[gk]
		clear(g.keys) // a pooled scratch must not pin the caller's keys
		g.keys, g.idx = g.keys[:0], g.idx[:0]
	}
	sc.used = sc.used[:0]
}

func (r *Router) release(sc *readScratch) {
	sc.resetGroups()
	r.scratch.Put(sc)
}

// subBatch is the per-node slice of one batch read.
type subBatch struct {
	floor kv.Version
	keys  []kv.Key
	idx   []int
	call  transport.BatchRead
}

// --- Updates -------------------------------------------------------------

// CommitUpdate implements the write half of the backend contract
// (core.CommitBackend): the optimistic update is relayed through a
// live node — any tcached forwards it to the database, which validates
// the observed read versions and commits, and hands the database's
// answer (version and per-write dependency lists) back — and the
// per-range write marks are raised so this client's subsequent reads, on
// any node, carry a floor at least as new as its own commit
// (read-your-writes across the tier) or as the conflicting committed
// version (so a stale mid-tier copy cannot livelock the retry). Relays
// rotate round-robin over the live nodes so a writing fleet spreads its
// update traffic instead of funnelling through one member.
//
// Updates are not idempotent: a transport failure after the frame was
// sent leaves the outcome unknown, so the call is NOT failed over to
// another node — the failure surfaces to the caller, and the node's
// health accounting takes the hit.
func (r *Router) CommitUpdate(ctx context.Context, reads []kv.ObservedRead, writes []kv.KeyValue) (kv.CommitResult, error) {
	var n *node
	start := int((r.upNext.Add(1) - 1) % uint64(len(r.node)))
	for off := 0; off < len(r.node); off++ {
		if cand := r.node[(start+off)%len(r.node)]; cand.available() {
			n = cand
			break
		}
	}
	if n == nil {
		return kv.CommitResult{}, fmt.Errorf("cluster: update: %w", ErrNoNodes)
	}
	res, err := n.cli.Load().CommitUpdate(ctx, reads, writes)
	if err != nil {
		var ce *db.ConflictError
		if errors.As(err, &ce) && ce.Found {
			r.observeWrite(rangeOf(KeyHash(ce.Key)), ce.Current)
		}
		if ctx.Err() == nil && errors.Is(err, transport.ErrUnavailable) {
			r.recordFailure(n)
		}
		return kv.CommitResult{}, err
	}
	n.recordSuccess()
	for _, w := range writes {
		r.observeWrite(rangeOf(KeyHash(w.Key)), res.Version)
	}
	return res, nil
}

// ValidatedUpdate implements core.UpdaterBackend: CommitUpdate without
// the lists.
func (r *Router) ValidatedUpdate(ctx context.Context, reads []kv.ObservedRead, writes []kv.KeyValue) (kv.Version, error) {
	res, err := r.CommitUpdate(ctx, reads, writes)
	return res.Version, err
}

// --- Invalidation subscription ------------------------------------------

// Subscribe attaches an invalidation sink to the fleet: the router
// subscribes to ONE live node (every tcached relays the database's full
// stream, so one home suffices), raising the per-range high-water marks
// before delivering, and fails the subscription over to a survivor when
// its home node dies. Invalidations sent during the failover gap are
// lost — the same lossy asynchronous channel the T-Cache protocol is
// designed to survive, and exactly why failover reads carry floors.
//
// The initial subscribe must succeed on some node (a duplicate name is
// reported immediately); transport.SubGroup.Resubscribe owns the
// reconnect loop.
func (r *Router) Subscribe(name string, sink func(transport.Invalidation)) (cancel func(), err error) {
	deliver := func(inv transport.Invalidation) {
		r.observe(rangeOf(KeyHash(inv.Key)), inv.Version)
		sink(inv)
	}

	return r.subs.Resubscribe(r.ctx, name, r.openSub, deliver)
}

// openSub opens an invalidation stream on the first node that accepts
// it, starting at the name's hash position so many subscribers spread
// over the fleet. A node that answers with a refusal (duplicate name)
// surfaces that error; unreachable nodes are skipped.
func (r *Router) openSub(ctx context.Context, name string) (*transport.InvStream, error) {
	start := int(fnv64(name) % uint64(len(r.node)))
	var lastErr error
	for off := 0; off < len(r.node); off++ {
		n := r.node[(start+off)%len(r.node)]
		if !n.available() {
			continue
		}
		st, err := transport.OpenInvalidationStream(ctx, n.addr, name)
		if err == nil {
			return st, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
		if !errors.Is(err, transport.ErrUnavailable) {
			return nil, err // the node answered and refused: report it
		}
		r.recordFailure(n)
		lastErr = err
	}
	if lastErr == nil {
		lastErr = ErrNoNodes
	}
	return nil, lastErr
}

// --- Stats --------------------------------------------------------------

// NodeStats is one node's health plus its server-side metrics.
type NodeStats struct {
	Addr             string
	State            NodeState
	ConsecutiveFails int
	// Stats is the node's OpStats snapshot; empty when unreachable.
	Stats telemetry.Snapshot
	// Err is the fetch failure, if any.
	Err string
}

// Stats fetches every node's metrics concurrently and the per-node
// health breakdown. Nodes that are not scraped — ejected, never dialed,
// or erroring mid-scrape — report WHY in Err, never a silently empty
// Stats with an empty Err: a fleet dashboard must distinguish "node
// served zero ops" from "node was not asked".
func (r *Router) Stats(ctx context.Context) []NodeStats {
	out := make([]NodeStats, len(r.node))
	var wg sync.WaitGroup
	for i, n := range r.node {
		out[i] = NodeStats{Addr: n.addr, State: n.state(), ConsecutiveFails: int(n.fails.Load())}
		cli := n.cli.Load()
		if !n.available() || cli == nil {
			switch {
			case cli == nil:
				out[i].Err = "node unreachable: never connected"
			default:
				out[i].Err = "node unavailable (ejected)"
			}
			continue
		}
		wg.Add(1)
		go func(i int, cli *transport.DBClient) {
			defer wg.Done()
			stats, err := cli.Stats(ctx)
			if err != nil {
				out[i].Err = err.Error()
				return
			}
			out[i].Stats = stats
		}(i, cli)
	}
	wg.Wait()
	return out
}
