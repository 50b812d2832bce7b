// Package tcache is the public API of this repository: an embeddable
// implementation of T-Cache, the transactional edge cache of
//
//	Eyal, Birman, van Renesse — "Cache Serializability: Reducing
//	Inconsistency in Edge Transactions", ICDCS 2015.
//
// The API is context-first and backend-agnostic: a Cache attaches to any
// Backend — the in-process database returned by OpenDB, or a remote one
// reached with Dial — and every blocking operation takes a
// context.Context whose cancellation aborts the work, releases its
// transaction record, and unblocks lock queues.
//
//	db := tcache.OpenDB()
//	defer db.Close()
//	cache, _ := tcache.NewCache(db, tcache.WithStrategy(tcache.StrategyRetry))
//	defer cache.Close()
//
//	_ = db.Update(ctx, func(tx *tcache.Tx) error {
//	    tx.Set("train", []byte("in stock"))
//	    tx.Set("tracks", []byte("in stock"))
//	    return nil
//	})
//
//	err := cache.ReadTxn(ctx, func(tx *tcache.ReadTx) error {
//	    page, err := tx.GetMulti(ctx, "train", "tracks")
//	    _ = page
//	    return err
//	})
//	if errors.Is(err, tcache.ErrTxnAborted) {
//	    // the cache detected that the reads were not serializable
//	}
//
// The paper's deployment — an edge cache separated from the datacenter
// database by an asynchronous, lossy link — is the remote form of the
// same five lines:
//
//	addr, stop, _ := tcache.ServeDB(db, "0.0.0.0:7070") // in the datacenter
//	defer stop()
//
//	remote, _ := tcache.Dial(ctx, addr) // at the edge
//	defer remote.Close()
//	cache, _ := tcache.NewCache(remote)
//	defer cache.Close()
//
// Read-only transactions served by the cache never contact the database
// on hits; the cache detects most non-serializable read sets locally
// using the bounded dependency lists the database maintains (the
// protocol is README.md's opening section; the paper's §III).
package tcache

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"tcache/internal/chaos"
	"tcache/internal/clock"
	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/kv"
	"tcache/internal/telemetry"
)

// Key identifies an object.
type Key = kv.Key

// Value is an opaque object payload.
type Value = kv.Value

// Version is a database commit version.
type Version = kv.Version

// Item is one versioned object as stored by the database: the payload,
// its commit version, and its bounded dependency list.
type Item = kv.Item

// Lookup is one result of a batch read: the item and whether it exists.
type Lookup = kv.Lookup

// Invalidation is the asynchronous message a backend sends to subscribed
// caches after an update transaction: the key written and its new version.
type Invalidation = db.Invalidation

// Backend is what a Cache needs from its database: the lock-free
// single-entry read that fills misses, and an invalidation subscription.
// Two implementations ship with the package — *DB (in-process) and
// *Remote (a database reached over TCP via Dial) — and applications may
// bring their own.
//
// Backends that also implement BatchBackend serve GetMulti miss fills in
// one request instead of one per key.
type Backend interface {
	// ReadItem returns the current committed item for key and whether the
	// key exists. ctx bounds the read; remote implementations abort their
	// round trip when it is cancelled.
	ReadItem(ctx context.Context, key Key) (Item, bool, error)
	// Subscribe registers an invalidation sink under name, returning a
	// cancel function. Duplicate names error: two caches sharing a name
	// would starve one of them of invalidations.
	Subscribe(name string, sink func(Invalidation)) (cancel func(), err error)
}

// BatchBackend is the optional batch-read extension of Backend: one
// request for many keys. Both *DB and *Remote implement it.
type BatchBackend interface {
	ReadItems(ctx context.Context, keys []Key) ([]Lookup, error)
}

// Strategy selects the cache's reaction to a detected inconsistency.
type Strategy = core.Strategy

// Strategies (§III-B of the paper).
const (
	// StrategyAbort aborts the observing transaction.
	StrategyAbort = core.StrategyAbort
	// StrategyEvict also evicts the stale cache entry.
	StrategyEvict = core.StrategyEvict
	// StrategyRetry additionally re-reads through to the database when
	// the stale object is the one currently being read.
	StrategyRetry = core.StrategyRetry
)

// Errors surfaced by the public API.
var (
	// ErrTxnAborted reports that a read-only transaction observed (or
	// was about to observe) non-serializable data and was aborted.
	ErrTxnAborted = core.ErrTxnAborted
	// ErrNotFound reports a key absent from both cache and database.
	ErrNotFound = core.ErrNotFound
	// ErrTxnDone reports a read through a ReadTx after its ReadTxn
	// returned: the transaction has ended, and the read starts no other.
	ErrTxnDone = errors.New("tcache: read transaction already finished")
	// ErrConflict reports an update-transaction concurrency conflict —
	// a lock arbitration loss in the database, or a stale optimistic
	// snapshot rejected at validation. Every Updater implementation
	// retries these automatically (with jittered backoff).
	ErrConflict = db.ErrConflict
	// ErrDuplicateSubscriber reports a Subscribe (or NewCache WithName)
	// under a name that is already taken on the backend.
	ErrDuplicateSubscriber = db.ErrDuplicateSubscriber
)

// DB is the transactional backend database. It implements Backend, so a
// Cache can attach to it directly, and Updater/UpdaterBackend, so it is
// one end of the unified write path.
type DB struct {
	inner *db.DB
}

var (
	_ Backend      = (*DB)(nil)
	_ BatchBackend = (*DB)(nil)
)

// DBOption configures OpenDB.
type DBOption func(*db.Config)

// WithDepListBound sets the dependency-list length k the database
// maintains per object (default 5, the paper's setting). Longer lists
// detect more inconsistencies at slightly higher metadata cost; 0
// disables dependency tracking.
func WithDepListBound(k int) DBOption {
	return func(c *db.Config) { c.DepBound = k }
}

// WithFsync controls whether OpenDurableDB fsyncs every commit batch
// before acknowledging it (default true). Group commit amortizes the
// fsyncs across concurrent writers. Disabling it trades crash
// durability (commits survive process death but not power loss or
// kernel panic) for write latency. It has no effect on OpenDB.
func WithFsync(on bool) DBOption {
	return func(c *db.Config) { c.WALSync = on }
}

// WithSegmentSize bounds one write-ahead-log segment file for
// OpenDurableDB (0 = the default, 64 MiB). Small segments exist mainly
// for tests; it has no effect on OpenDB.
func WithSegmentSize(n int64) DBOption {
	return func(c *db.Config) { c.WALSegmentSize = n }
}

// OpenDB creates an in-process backend database.
func OpenDB(opts ...DBOption) *DB {
	cfg := db.Config{DepBound: 5}
	for _, o := range opts {
		o(&cfg)
	}
	return &DB{inner: db.Open(cfg)}
}

// OpenDurableDB creates (or recovers) a database whose commits are made
// durable in a segmented write-ahead log under dir: values, versions
// and dependency lists all survive restarts. Commits are fsynced by
// default (see WithFsync); concurrent committers share batches and
// fsyncs via group commit. The log bounds itself: when a segment seals
// and the segments since the newest snapshot hold at least as many
// bytes as it does, a background snapshot truncates them.
//
// dir must be a directory (it is created if absent). Logs written by
// versions of this package before the segmented format — a single gob
// file at a path — are not readable; there is no migration.
func OpenDurableDB(dir string, opts ...DBOption) (*DB, error) {
	cfg := db.Config{DepBound: 5, WALSync: true}
	for _, o := range opts {
		o(&cfg)
	}
	inner, err := db.Recover(cfg, dir)
	if err != nil {
		return nil, err
	}
	return &DB{inner: inner}, nil
}

// Close shuts the database down. For a durable database the error
// reports a write-ahead-log flush failure — acknowledged commits that
// may not survive the next restart; it is always nil for OpenDB.
func (d *DB) Close() error { return d.inner.Close() }

// Snapshot checkpoints a durable database's committed state and
// truncates the write-ahead-log segments the checkpoint makes obsolete.
// Commits proceed concurrently. It is a no-op for OpenDB databases.
func (d *DB) Snapshot() error { return d.inner.Snapshot() }

// Core exposes the underlying database for advanced integrations (e.g.
// serving it over the wire with the transport package, or compacting a
// durable log).
func (d *DB) Core() *db.DB { return d.inner }

// ReadItem implements Backend: the lock-free single-entry read caches use
// to fill misses.
func (d *DB) ReadItem(ctx context.Context, key Key) (Item, bool, error) {
	return d.inner.ReadItem(ctx, key)
}

// ReadItems implements BatchBackend.
func (d *DB) ReadItems(ctx context.Context, keys []Key) ([]Lookup, error) {
	return d.inner.ReadItems(ctx, keys)
}

// Subscribe implements Backend: it registers an invalidation sink under
// name. Duplicate names return ErrDuplicateSubscriber.
func (d *DB) Subscribe(name string, sink func(Invalidation)) (cancel func(), err error) {
	return d.inner.Subscribe(name, sink)
}

// Get performs a lock-free single-entry read of the latest committed
// value directly from the database. The boolean reports presence; the
// error is non-nil only for a cancelled ctx, so a missing key is never
// conflated with an aborted read.
//
// The returned Value shares the store's memory (copy-on-write: commits
// replace items wholesale) and must be treated as read-only; Clone it
// before modifying.
func (d *DB) Get(ctx context.Context, key Key) (Value, bool, error) {
	item, ok, err := d.inner.ReadItem(ctx, key)
	if err != nil {
		return nil, false, err
	}
	return item.Value, ok, nil
}

// Pin declares always-retained dependencies: owner's stored dependency
// list will always include entries for deps at their current committed
// versions, regardless of the LRU bound (the paper's §VII suggestion —
// e.g. pin every album picture to the album's ACL object).
func (d *DB) Pin(owner Key, deps ...Key) { d.inner.Pin(owner, deps...) }

// Unpin removes previously pinned dependencies of owner.
func (d *DB) Unpin(owner Key, deps ...Key) { d.inner.Unpin(owner, deps...) }

// Cache is a T-Cache instance attached to a Backend.
type Cache struct {
	inner *core.Cache
	unsub func()
	seq   atomic.Uint64
	// commit is the backend's commit call (nil when it takes no updates),
	// resolved once at NewCache.
	commit core.CommitFunc

	// readTxnHist and updateHist are the whole-transaction latency
	// histograms of an attached Telemetry (nil without WithTelemetry —
	// the paths then take no time stamps).
	readTxnHist *telemetry.StripedHistogram
	updateHist  *telemetry.Histogram
}

// cacheOptions collects NewCache settings.
type cacheOptions struct {
	core core.Config
	link chaos.Config
	// lossy marks that the invalidation link should be routed through a
	// chaos injector instead of delivered synchronously.
	lossy bool
	name  string
	// telemetry is the WithTelemetry attachment, if any.
	telemetry *Telemetry
}

// CacheOption configures NewCache.
type CacheOption func(*cacheOptions)

// WithStrategy sets the inconsistency reaction (default StrategyRetry,
// the paper's best-performing configuration).
func WithStrategy(s Strategy) CacheOption {
	return func(o *cacheOptions) { o.core.Strategy = s }
}

// WithTTL bounds the life span of cache entries (0 = none).
func WithTTL(ttl time.Duration) CacheOption {
	return func(o *cacheOptions) { o.core.TTL = ttl }
}

// WithMaxBytes bounds the cache's resident memory: each entry is
// charged key length + value length + a fixed per-entry overhead.
// 0 = unbounded. The budget is split across the cache shards and
// enforced per shard under the shard lock, so a bounded cache keeps the
// same multi-core scaling as an unbounded one. Victims are picked by
// exact per-shard LRU; pair with WithAdmission to keep one-hit wonders
// out.
func WithMaxBytes(n int64) CacheOption {
	return func(o *cacheOptions) { o.core.MaxBytes = n }
}

// WithAdmission enables doorkeeper admission control on a bounded
// cache: a never-before-seen key is served but not cached on its first
// sighting and admitted on its second, so scans of one-hit-wonder keys
// cannot flush the working set. Ignored when the cache is unbounded.
func WithAdmission() CacheOption {
	return func(o *cacheOptions) { o.core.Admission = true }
}

// WithCacheShards sets the number of lock stripes the cache's entry table
// is split over (the transaction counters have their own, fixed striping). 1 makes per-shard LRU exactly global LRU; 0 (the default)
// picks runtime.GOMAXPROCS(0) stripes whether or not the cache is
// bounded — byte budgets are enforced per shard, so a memory bound no
// longer costs the striping. With more than one shard, a bounded cache's
// eviction is approximately — rather than exactly — global: each shard
// ranks only its own residents.
func WithCacheShards(n int) CacheOption {
	return func(o *cacheOptions) { o.core.Shards = n }
}

// WithLossyLink routes invalidations through an unreliable asynchronous
// channel that drops a fraction of messages and delays the rest — the
// environment the paper targets. Without it, invalidations are delivered
// as the backend sends them (for *DB that is synchronous and reliable;
// for *Remote, whatever the network does).
func WithLossyLink(dropRate float64, delay, jitter time.Duration, seed int64) CacheOption {
	return func(o *cacheOptions) {
		o.lossy = true
		o.link = chaos.Config{DropRate: dropRate, BaseDelay: delay, Jitter: jitter, Seed: seed}
	}
}

// WithName names the cache's invalidation subscription. Names must be
// unique per backend; NewCache surfaces ErrDuplicateSubscriber on a
// clash. The default is unique within and across processes.
func WithName(name string) CacheOption {
	return func(o *cacheOptions) { o.name = name }
}

var _cacheSeq atomic.Uint64

// NewCache attaches a T-Cache to backend b and subscribes it to the
// backend's invalidation stream.
func NewCache(b Backend, opts ...CacheOption) (*Cache, error) {
	o := cacheOptions{}
	o.core.Backend = b
	o.core.Strategy = core.StrategyRetry
	for _, opt := range opts {
		opt(&o)
	}
	inner, err := core.New(o.core)
	if err != nil {
		return nil, err
	}
	clk := o.core.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	deliver := func(inv Invalidation) { inner.Invalidate(inv.Key, inv.Version) }
	sink := deliver
	if o.lossy {
		inj := chaos.New[Invalidation](clk, o.link)
		sink = inj.Wrap(deliver)
	}
	name := o.name
	if name == "" {
		// Unique across processes too: remote backends reject duplicates.
		name = fmt.Sprintf("cache-%d-%d", os.Getpid(), _cacheSeq.Add(1))
	}
	unsub, err := b.Subscribe(name, sink)
	if err != nil {
		inner.Close()
		return nil, fmt.Errorf("tcache: subscribe %q: %w", name, err)
	}
	c := &Cache{inner: inner, unsub: unsub, commit: core.Committer(b)}
	if t := o.telemetry; t != nil {
		c.readTxnHist = t.readTxn
		c.updateHist = t.update
		// Backends that own a wire client (Remote, cluster) time their
		// round trips into the same telemetry set.
		if rt, ok := b.(roundTripSetter); ok {
			rt.setRoundTripHistogram(t.roundTrip)
		}
	}
	return c, nil
}

// Close detaches the cache from the invalidation stream and shuts it
// down.
func (c *Cache) Close() {
	c.unsub()
	c.inner.Close()
}

// Core exposes the underlying cache for advanced integrations (metrics,
// serving it over the wire).
func (c *Cache) Core() *core.Cache { return c.inner }

// ReadTx is a read-only transaction handle passed to Cache.ReadTxn. It is
// valid only until ReadTxn returns.
type ReadTx struct {
	txn *core.Txn // nil once ReadTxn has returned
}

// Get reads key through the cache within the transaction. ctx bounds the
// backend fetch on a miss. After the transaction aborts, further reads
// return the abort error; after ReadTxn returns, ErrTxnDone.
//
// The returned Value is shared with the cache (copy-on-write: updates
// replace whole items rather than mutating served slices) and must be
// treated as read-only; Clone it before modifying.
func (t *ReadTx) Get(ctx context.Context, key Key) (Value, error) {
	if t.txn == nil {
		return nil, ErrTxnDone
	}
	return t.txn.Read(ctx, key)
}

// GetMulti reads keys, in order, within the transaction — semantically
// identical to one Get per key, but served in one pass: each cache shard
// the keys touch is locked once, all keys missing from the cache are
// fetched from the backend in a single batch request (one round trip to a
// remote database instead of one per key), and the batch is validated
// under one lock. Every read is validated individually, in order; the
// first error stops the batch.
//
// Like Get, the returned Values are shared with the cache and must be
// treated as read-only; Clone before modifying.
func (t *ReadTx) GetMulti(ctx context.Context, keys ...Key) ([]Value, error) {
	if t.txn == nil {
		return nil, ErrTxnDone
	}
	return t.txn.ReadMulti(ctx, keys)
}

// ReadTxn runs fn as one read-only transaction against the cache. All
// Gets inside fn are validated against each other; if the cache detects
// that they cannot belong to one serializable snapshot the transaction
// aborts and ReadTxn returns an error wrapping ErrTxnAborted (the caller
// may simply retry). A cache hit never contacts the database.
//
// Cancelling ctx aborts the transaction: a read that has to fetch
// returns ctx.Err() (one the cache can serve completes — it cannot
// block), the transaction record is released, and ReadTxn returns the
// context's error instead of committing.
func (c *Cache) ReadTxn(ctx context.Context, fn func(tx *ReadTx) error) error {
	id := kv.TxnID(c.seq.Add(1))
	if c.readTxnHist == nil {
		return c.readTxn(ctx, id, time.Time{}, fn)
	}
	// One stamp starts both the transaction's observation and its first
	// batch's (client_read_multi_ns).
	start := time.Now()
	err := c.readTxn(ctx, id, start, fn)
	c.readTxnHist.Stripe(uint64(id)).ObserveSince(start)
	return err
}

// readTxn consults ctx twice: on entry and before committing. In
// between, a read the cache serves cannot block and does not look (a
// read that must fetch does, before the fetch). The transaction is the
// ReadTx's for as long as fn runs, and no longer: a ReadTx kept past it
// cannot reach the transaction, which is recycled.
func (c *Cache) readTxn(ctx context.Context, id kv.TxnID, start time.Time, fn func(tx *ReadTx) error) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	tx := &ReadTx{txn: c.inner.Begin(id, start)}
	err := fn(tx)
	txn := tx.txn
	tx.txn = nil
	if err == nil {
		// fn may have swallowed a cancellation; the transaction must not
		// commit as if the read set were complete.
		err = ctxErr(ctx)
	}
	// An abort the cache detected, or Close, outranks fn's own error.
	if ferr := txn.Finish(err == nil); ferr != nil {
		return ferr
	}
	return err
}

// ctxErr is ctx.Err() for a path that runs while ctx is almost always
// live: a cancellable context answers Err under its mutex, which every
// goroutine sharing the ctx then queues on, but Done with one atomic load
// — so poll Done, and ask Err only once it is closed.
func ctxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// Get performs a plain, non-transactional cache read. The returned
// Value is shared with the cache and must be treated as read-only;
// Clone it before modifying.
func (c *Cache) Get(ctx context.Context, key Key) (Value, error) {
	return c.inner.Get(ctx, key)
}

// Invalidate applies an invalidation upcall directly (for callers that
// bridge their own delivery channel).
func (c *Cache) Invalidate(key Key, version Version) {
	c.inner.Invalidate(key, version)
}

// Stats is a point-in-time snapshot of cache counters.
type Stats = core.MetricsSnapshot

// Stats returns the cache's counters.
func (c *Cache) Stats() Stats { return c.inner.Metrics() }
