// Package core implements T-Cache, the paper's primary contribution: an
// edge cache that offers a transactional read-only interface on top of the
// usual read/invalidate API, detecting most inconsistencies locally —
// without any round trip to the backend database on cache hits.
//
// The cache stores, alongside each object's value, its commit version and
// its bounded dependency list as maintained by the database (§III-A). For
// every in-flight read-only transaction it keeps a record of the versions
// read and the versions expected by their dependency lists, and validates
// every new read against that record (§III-B, equations 1 and 2). On a
// detected inconsistency it applies one of three strategies: ABORT, EVICT,
// or RETRY.
//
// # Concurrency
//
// The cache is lock-striped along two independent axes so the hit path
// scales with cores instead of serializing on one global mutex:
//
//   - the entry table (and its LRU ring) is hash-partitioned into
//     Config.Shards cacheShards, keyed by the same FNV-1a hash the
//     storage and db packages use;
//   - the transaction-record table is striped into as many txnStripes,
//     keyed by TxnID.
//
// A transactional read locks exactly one entry shard and one transaction
// stripe, always in that fixed order (entry shard first), and never holds
// two locks of the same kind at once; cross-shard work (evicting a stale
// object that hashes elsewhere) runs after both locks are released.
// Completion hooks are always invoked with no cache lock held, so hooks
// may call back into the cache.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tcache/internal/clock"
	"tcache/internal/evict"
	"tcache/internal/kv"
	"tcache/internal/telemetry"
)

// Strategy selects how the cache reacts when a read would expose an
// inconsistency (§III-B).
type Strategy int

const (
	// StrategyAbort aborts the current transaction, affecting only it.
	StrategyAbort Strategy = iota + 1
	// StrategyEvict aborts the transaction and evicts the violating
	// (too-old) object, guessing that it would trip future transactions.
	StrategyEvict
	// StrategyRetry additionally re-reads the violating object from the
	// database when the violator is the object currently being read
	// (equation 2), turning the inconsistency into a cache miss; when the
	// violator was already returned to the client (equation 1) it behaves
	// like StrategyEvict.
	StrategyRetry
)

func (s Strategy) String() string {
	switch s {
	case StrategyAbort:
		return "ABORT"
	case StrategyEvict:
		return "EVICT"
	case StrategyRetry:
		return "RETRY"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Errors returned by Read.
var (
	// ErrTxnAborted reports that the transaction observed (or would have
	// observed) inconsistent data and was aborted; the client may retry
	// with a fresh transaction ID.
	ErrTxnAborted = errors.New("tcache: transaction aborted on inconsistency")
	// ErrNotFound reports that neither the cache nor the backend has the
	// key.
	ErrNotFound = errors.New("tcache: key not found")
	// ErrClosed reports that the cache is shut down.
	ErrClosed = errors.New("tcache: closed")
)

// InconsistencyError is the concrete error wrapped into ErrTxnAborted; it
// names the violating key and which check fired.
type InconsistencyError struct {
	TxnID kv.TxnID
	// Key is the key whose read triggered the check.
	Key kv.Key
	// StaleKey is the too-old object (equal to Key for equation-2
	// violations, a previously read key for equation-1 violations).
	StaleKey kv.Key
	// Equation is 1 or 2, matching the paper's numbering.
	Equation int
}

func (e *InconsistencyError) Error() string {
	return fmt.Sprintf("tcache: txn %d: eq.%d violation reading %q (stale object %q)",
		e.TxnID, e.Equation, e.Key, e.StaleKey)
}

// Unwrap makes errors.Is(err, ErrTxnAborted) hold.
func (e *InconsistencyError) Unwrap() error { return ErrTxnAborted }

// Backend is the database interface the cache needs: the lock-free
// single-entry read used to fill misses. It may be an in-process database
// (*db.DB) or a remote one reached over the wire (transport.DBClient) —
// the cache does not care, which is what makes the paper's edge/datacenter
// split expressible. The context bounds the fetch; a remote backend
// aborts its round trip when it is cancelled.
type Backend interface {
	ReadItem(ctx context.Context, key kv.Key) (kv.Item, bool, error)
}

// BatchBackend is the optional batch extension of Backend: one round trip
// for many keys. ReadMulti uses it to prefetch all missing keys of a
// transactional batch read at once; backends that do not implement it are
// read key by key.
type BatchBackend interface {
	ReadItems(ctx context.Context, keys []kv.Key) ([]kv.Lookup, error)
}

// UpdaterBackend is the optional write extension of Backend: one
// optimistic update transaction, validated and committed atomically.
// The observed read versions are re-checked against the committed state
// and the writes applied only if all still match; a mismatch fails with
// the backend's conflict error (db.ConflictError for the in-process
// database, relayed across the wire by the transport). Backends that
// implement it (*db.DB, transport.DBClient, cluster.Router) let a cache
// sitting on top offer the unified read-modify-write API.
type UpdaterBackend interface {
	ValidatedUpdate(ctx context.Context, reads []kv.ObservedRead, writes []kv.KeyValue) (kv.Version, error)
}

// ReadVersion is one (key, version) pair of a completed transaction's
// read set, reported to completion observers.
type ReadVersion struct {
	Key     kv.Key
	Version kv.Version
}

// Completion describes a finished read-only transaction: the versions it
// read and whether it committed. The consistency monitor consumes these.
type Completion struct {
	TxnID     kv.TxnID
	Reads     []ReadVersion
	Committed bool
	// Attempted is set when the transaction was aborted on a detected
	// violation: it is the read that would have been returned next had
	// the check not fired. Including it in the would-be read set lets a
	// monitor distinguish true detections (the transaction was about to
	// observe a non-serializable snapshot) from spurious aborts.
	Attempted *ReadVersion
}

// CompletionHook observes finished read-only transactions. Hooks run
// user code and are always emitted with no cache lock held; tcachelint's
// nolockedcalls analyzer enforces that.
//
//tcache:hook
type CompletionHook func(Completion)

// Config configures a Cache.
type Config struct {
	// Backend fills cache misses. Required.
	Backend Backend
	// Clock drives TTL expiry and transaction GC. Defaults to clock.Real.
	Clock clock.Clock
	// Strategy is the inconsistency reaction (default StrategyAbort).
	Strategy Strategy
	// TTL bounds the life span of cache entries; 0 disables expiry.
	// The TTL-based baseline of Fig. 7(d) sets this and disables
	// dependency checking at the database (DepBound 0).
	TTL time.Duration
	// TxnGC bounds how long an idle transaction record is kept before it
	// is garbage-collected (protecting against clients that never send
	// lastOp). 0 disables the sweeper.
	TxnGC time.Duration
	// MaxBytes bounds the resident byte footprint of the cache: each
	// entry is charged key length + value length + evict.EntryOverhead
	// (plus retained older versions under multiversioning). 0 means
	// unbounded (the paper's prototype: "all objects in the workload fit
	// in the cache"). The budget is split across shards; each shard enforces
	// its slice under its own lock with the configured eviction Policy,
	// so bounded caches scale with cores exactly like unbounded ones.
	MaxBytes int64
	// Policy selects the eviction policy for bounded caches (MaxBytes
	// set): evict.LRU (default; exact per-shard LRU),
	// evict.Clock (second-chance ring, cheapest possible warm-hit
	// touch), or evict.Cost (bytes × staleness scoring, so one huge
	// cold blob doesn't outlive a thousand small hot entries).
	Policy evict.Kind
	// Admission enables the doorkeeper admission filter on bounded
	// caches: a never-before-seen key is served but not cached on its
	// first sighting, so one-hit-wonder scans cannot flush the working
	// set. Ignored when the cache is unbounded.
	Admission bool
	// Multiversion retains up to this many committed versions per entry
	// and serves each transaction the newest version that keeps it
	// serializable (the TxCache technique §VI suggests combining with
	// T-Cache; see multiversion.go). Values ≤ 1 disable it.
	Multiversion int
	// Shards is the number of lock stripes the entry table (with its
	// per-shard eviction state) and the transaction-record table are
	// each split over. 0 picks runtime.GOMAXPROCS(0) whether or not the
	// cache is bounded: budgets are enforced per shard (each shard owns
	// ≈ MaxBytes/Shards, at least one unit), so a memory bound no
	// longer costs the lock striping. 1 preserves the historical
	// single-mutex semantics — and makes per-shard LRU exactly global
	// LRU. With Shards > 1 eviction is approximately global: each shard
	// ranks only its own residents.
	Shards int
	// Telemetry, when non-nil, receives latency observations from the
	// read hot paths (warm hit, cold fill, batch read). Nil disables
	// instrumentation entirely — the hot paths take no time stamps.
	Telemetry *Telemetry
}

// Cache is a T-Cache server. It is safe for concurrent use.
type Cache struct {
	cfg Config
	clk clock.Clock

	shards  []*cacheShard
	stripes []*txnStripe

	closed atomic.Bool

	// gcMu guards gcTimer against the sweep-vs-Close reschedule race.
	gcMu    sync.Mutex
	gcTimer clock.Timer

	hookMu sync.Mutex
	hooks  []CompletionHook

	metrics  Metrics
	counters *telemetry.CounterSet // metrics' tagged fields, walked once at New
	tel      *Telemetry            // nil = telemetry off; see Config.Telemetry

	// policyEvictions points at the per-policy eviction counter the
	// active policy increments (metrics.EvictionsLRU/Clock/Cost),
	// resolved once at New so the eviction path never switches on the
	// policy kind.
	policyEvictions *uint64v
}

// The locking protocol (PR 1), as enforced by tcachelint's lockorder
// analyzer: an entry-shard lock may be held when acquiring a txn-stripe
// lock, never the reverse, and at most one lock of each kind is held at
// a time.
//
//tcache:lockorder shard < stripe

// cacheShard is one lock stripe of the entry table: a partition of the key
// space with its own mutex and its own slice of the eviction budget.
type cacheShard struct {
	mu      sync.Mutex //tcache:lockclass shard
	entries map[kv.Key]*entry
	// ev is this shard's eviction ledger: byte budget, policy state,
	// and optional admission doorkeeper. Its zero value is the
	// unbounded no-op, and every call into it is made under mu.
	ev evict.Shard
}

// txnStripe is one lock stripe of the transaction-record table.
type txnStripe struct {
	mu   sync.Mutex //tcache:lockclass stripe
	txns map[kv.TxnID]*txnRecord
}

type entry struct {
	key       kv.Key
	item      kv.Item
	fetchedAt time.Time
	// prefetched marks an entry inserted by a batch prefetch whose
	// triggering read has not consumed it yet: the first read serves it as
	// a miss (the backend fetch happened, just batched), keeping hit-ratio
	// accounting — and therefore measured DB load — identical to the
	// per-key path.
	prefetched bool
	// older retains superseded versions, newest first (multiversioning).
	older []kv.Item
	// staleLatest marks that item is no longer the latest committed
	// version (set by invalidations under multiversioning).
	staleLatest bool
	// h is the entry's intrusive eviction node (policy list links, byte
	// cost, reference bit); owned by the shard's evict ledger, guarded
	// by the shard mutex.
	h evict.Handle
}

// txnRecord tracks one in-flight read-only transaction: the version each
// key was read at, and the largest version any read (or any read's
// dependency list) expects for each key. Its fields are guarded by the
// owning stripe's mutex.
//
// Both tables are small slices searched linearly, not maps: transactions
// read a handful of keys (the paper's workloads read ~5), and at that
// size two slice appends beat two map allocations plus hashed inserts on
// every read — this is the warm-hit path, where every allocation shows
// up in the served-read latency.
type txnRecord struct {
	// order doubles as the read-version table: each key's first read is
	// appended exactly once, in read order, so it serves both the eq.1/2
	// lookups and the completion report.
	order []ReadVersion
	// expected holds the largest version any read (or its dependency
	// list) expects per key.
	expected []ReadVersion
	// readIdx and expIdx index the two tables by key. They stay nil —
	// and lookups stay linear — until a table outgrows txnRecordSpill,
	// so a huge batch read degrades to O(1) map lookups instead of
	// quadratic scans while holding the stripe lock.
	readIdx  map[kv.Key]int
	expIdx   map[kv.Key]int
	lastUsed time.Time
	// Inline backing arrays sized for the common case (the paper's
	// workloads read ~5 keys with ~5 dependencies each): a whole record
	// costs one allocation; larger transactions spill to the heap via
	// ordinary append.
	orderBuf    [8]ReadVersion
	expectedBuf [12]ReadVersion
}

// txnRecordSpill is the table size beyond which a record builds key
// indexes. Below it, linear scans over the inline arrays win on both
// allocations and time.
const txnRecordSpill = 32

// newTxnRecord allocates a record with its tables pointing at the inline
// buffers.
func newTxnRecord() *txnRecord {
	rec := &txnRecord{}
	rec.order = rec.orderBuf[:0]
	rec.expected = rec.expectedBuf[:0]
	return rec
}

// readVersion returns the version key was first read at.
//
//tcache:hotpath
func (rec *txnRecord) readVersion(key kv.Key) (kv.Version, bool) {
	if rec.readIdx != nil {
		i, ok := rec.readIdx[key]
		if !ok {
			return kv.Version{}, false
		}
		return rec.order[i].Version, true
	}
	for i := range rec.order {
		if rec.order[i].Key == key {
			return rec.order[i].Version, true
		}
	}
	return kv.Version{}, false
}

// appendRead records the first read of key, maintaining (or building)
// the spill index.
//
//tcache:hotpath
func (rec *txnRecord) appendRead(key kv.Key, v kv.Version) {
	if rec.readIdx == nil && len(rec.order) >= txnRecordSpill {
		rec.readIdx = make(map[kv.Key]int, 2*len(rec.order))
		for i := range rec.order {
			rec.readIdx[rec.order[i].Key] = i
		}
	}
	if rec.readIdx != nil {
		rec.readIdx[key] = len(rec.order)
	}
	rec.order = append(rec.order, ReadVersion{Key: key, Version: v})
}

// expectedVersion returns the largest version the record expects for key.
//
//tcache:hotpath
func (rec *txnRecord) expectedVersion(key kv.Key) (kv.Version, bool) {
	if rec.expIdx != nil {
		i, ok := rec.expIdx[key]
		if !ok {
			return kv.Version{}, false
		}
		return rec.expected[i].Version, true
	}
	for i := range rec.expected {
		if rec.expected[i].Key == key {
			return rec.expected[i].Version, true
		}
	}
	return kv.Version{}, false
}

// bumpExpected raises the expected version of key to at least v.
//
//tcache:hotpath
func (rec *txnRecord) bumpExpected(key kv.Key, v kv.Version) {
	if rec.expIdx != nil {
		if i, ok := rec.expIdx[key]; ok {
			if rec.expected[i].Version.Less(v) {
				rec.expected[i].Version = v
			}
			return
		}
	} else {
		for i := range rec.expected {
			if rec.expected[i].Key == key {
				if rec.expected[i].Version.Less(v) {
					rec.expected[i].Version = v
				}
				return
			}
		}
		if len(rec.expected) >= txnRecordSpill {
			rec.expIdx = make(map[kv.Key]int, 2*len(rec.expected))
			for i := range rec.expected {
				rec.expIdx[rec.expected[i].Key] = i
			}
		}
	}
	if rec.expIdx != nil {
		rec.expIdx[key] = len(rec.expected)
	}
	rec.expected = append(rec.expected, ReadVersion{Key: key, Version: v})
}

// New creates a cache.
func New(cfg Config) (*Cache, error) {
	if cfg.Backend == nil {
		return nil, errors.New("tcache: Config.Backend is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Strategy == 0 {
		cfg.Strategy = StrategyAbort
	}
	if cfg.MaxBytes < 0 {
		return nil, errors.New("tcache: Config.MaxBytes must be >= 0")
	}
	if cfg.Shards <= 0 {
		// Bounded or not: budgets are per shard, so a memory bound no
		// longer collapses the cache onto one lock.
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	c := &Cache{
		cfg:     cfg,
		clk:     cfg.Clock,
		shards:  make([]*cacheShard, cfg.Shards),
		stripes: make([]*txnStripe, cfg.Shards),
		tel:     cfg.Telemetry,
	}
	c.counters = telemetry.NewCounterSet(&c.metrics, MetricsSnapshot{})
	for i := range c.shards {
		c.shards[i] = &cacheShard{entries: make(map[kv.Key]*entry)}
		c.stripes[i] = &txnStripe{txns: make(map[kv.TxnID]*txnRecord)}
	}
	switch cfg.Policy {
	case evict.Clock:
		c.policyEvictions = &c.metrics.EvictionsClock
	case evict.Cost:
		c.policyEvictions = &c.metrics.EvictionsCost
	default:
		c.policyEvictions = &c.metrics.EvictionsLRU
	}
	// Each shard enforces its slice of the budget, at least one byte,
	// under its own lock.
	if budget := uint64(cfg.MaxBytes); budget > 0 {
		base, rem := budget/uint64(cfg.Shards), budget%uint64(cfg.Shards)
		for i, sh := range c.shards {
			slice := base
			if uint64(i) < rem {
				slice++
			}
			if slice < 1 {
				slice = 1
			}
			sh.ev = evict.NewShard(cfg.Policy, slice, cfg.Admission)
		}
	}
	if cfg.TxnGC > 0 {
		// Under gcMu: a tiny TxnGC can fire the sweep (which reassigns
		// gcTimer under gcMu) before this store completes.
		c.gcMu.Lock()
		c.gcTimer = c.clk.AfterFunc(cfg.TxnGC, c.gcSweep)
		c.gcMu.Unlock()
	}
	return c, nil
}

// Shards returns the number of lock stripes the cache was built with.
func (c *Cache) Shards() int { return len(c.shards) }

// Backend returns the backend the cache fills misses from, so owners
// (the cache server relaying updates, the public API's write path) can
// discover its optional capabilities — BatchBackend, UpdaterBackend.
func (c *Cache) Backend() Backend { return c.cfg.Backend }

// shardFor returns the entry shard responsible for key.
//
//tcache:hotpath
func (c *Cache) shardFor(key kv.Key) *cacheShard {
	return c.shards[kv.ShardIndex(key, len(c.shards))]
}

// stripeFor returns the transaction stripe responsible for txnID.
//
//tcache:hotpath
func (c *Cache) stripeFor(txnID kv.TxnID) *txnStripe {
	return c.stripes[uint64(txnID)%uint64(len(c.stripes))]
}

// Close stops background work, aborts every in-flight transaction record,
// and reports each as an uncommitted Completion to the registered hooks
// (so monitors never undercount aborts). Subsequent reads fail with
// ErrClosed. Close is idempotent.
func (c *Cache) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	c.gcMu.Lock()
	if c.gcTimer != nil {
		c.gcTimer.Stop()
	}
	c.gcMu.Unlock()
	var comps []Completion
	for _, st := range c.stripes {
		st.mu.Lock()
		for id, rec := range st.txns {
			comps = append(comps, Completion{TxnID: id, Reads: rec.order, Committed: false})
			delete(st.txns, id)
			c.metrics.TxnsAbortedOnClose.Add(1)
		}
		st.mu.Unlock()
	}
	c.emitAll(comps)
}

// OnComplete registers a hook observing every finished transaction.
func (c *Cache) OnComplete(h CompletionHook) {
	c.hookMu.Lock()
	defer c.hookMu.Unlock()
	c.hooks = append(c.hooks, h)
}

func (c *Cache) emit(comp Completion) {
	c.hookMu.Lock()
	if len(c.hooks) == 0 {
		c.hookMu.Unlock()
		return
	}
	hooks := make([]CompletionHook, len(c.hooks))
	copy(hooks, c.hooks)
	c.hookMu.Unlock()
	for _, h := range hooks {
		h(comp)
	}
}

// emitAll delivers queued completion reports with no cache lock held.
func (c *Cache) emitAll(comps []Completion) {
	for _, comp := range comps {
		c.emit(comp)
	}
}

// Invalidate is the upcall the database (or its unreliable delivery
// pipeline) invokes after an update transaction: it evicts the cached
// entry if it is older than the invalidated version.
func (c *Cache) Invalidate(key kv.Key, version kv.Version) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok {
		c.metrics.InvalidationsNoop.Add(1)
		return
	}
	if c.cfg.Multiversion > 1 {
		c.invalidateMVLocked(e, version)
		return
	}
	if e.item.Version.Less(version) {
		sh.removeEntry(e)
		c.metrics.InvalidationsApplied.Add(1)
		return
	}
	c.metrics.InvalidationsStale.Add(1)
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// ResidentBytes returns the bytes currently charged against the
// eviction budget (0 when the cache is unbounded): the running sum the
// shards maintain, not a walk over the entries, so it is exact with
// respect to the accounting the budget enforces.
func (c *Cache) ResidentBytes() uint64 {
	var n uint64
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.ev.Used()
		sh.mu.Unlock()
	}
	return n
}

// MaxBytes returns the configured total byte budget (0 when unbounded).
func (c *Cache) MaxBytes() uint64 { return uint64(c.cfg.MaxBytes) }

// EvictionPolicy returns the configured eviction policy kind.
func (c *Cache) EvictionPolicy() evict.Kind { return c.cfg.Policy }

// ActiveTxns returns the number of in-flight transaction records.
func (c *Cache) ActiveTxns() int {
	n := 0
	for _, st := range c.stripes {
		st.mu.Lock()
		n += len(st.txns)
		st.mu.Unlock()
	}
	return n
}

// Contains reports whether key is currently cached (ignoring TTL).
func (c *Cache) Contains(key kv.Key) bool {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.entries[key]
	return ok
}

// gcSweep drops transaction records idle for longer than TxnGC and
// reschedules itself.
func (c *Cache) gcSweep() {
	if c.closed.Load() {
		return
	}
	now := c.clk.Now()
	var comps []Completion
	for _, st := range c.stripes {
		st.mu.Lock()
		for id, rec := range st.txns {
			if now.Sub(rec.lastUsed) >= c.cfg.TxnGC {
				comps = append(comps, Completion{TxnID: id, Reads: rec.order, Committed: false})
				delete(st.txns, id)
				c.metrics.TxnsGCed.Add(1)
			}
		}
		st.mu.Unlock()
	}
	c.gcMu.Lock()
	if !c.closed.Load() {
		c.gcTimer = c.clk.AfterFunc(c.cfg.TxnGC, c.gcSweep)
	}
	c.gcMu.Unlock()
	c.emitAll(comps)
}

// removeEntry unlinks e from the shard's map and eviction ledger
// (refunding its byte cost). Callers hold sh.mu.
//
//tcache:holds shard
func (sh *cacheShard) removeEntry(e *entry) {
	delete(sh.entries, e.key)
	sh.ev.Remove(&e.h)
}

// cost is the byte cost charged against the budget for e: key +
// current value + per-entry overhead, plus every retained older version
// under multiversioning.
//
//tcache:hotpath
func (e *entry) cost() uint64 {
	n := uint64(evict.EntryOverhead) + uint64(len(e.key)) + uint64(len(e.item.Value))
	for i := range e.older {
		n += uint64(evict.VersionOverhead) + uint64(len(e.older[i].Value))
	}
	return n
}

// enforceBudgetLocked evicts until the shard is back under its byte
// budget. Eviction can never violate eq.1/eq.2: transaction records
// hold (key, version) pairs, not entry pointers, so an evicted
// dependency is simply a future cold read that re-validates against the
// record on its way back in — the §III-B checks fire exactly as if the
// entry had never been cached. Callers hold sh.mu.
//
//tcache:holds shard
func (c *Cache) enforceBudgetLocked(sh *cacheShard) {
	for sh.ev.NeedEvict() {
		obj, scanned := sh.ev.Evict()
		if obj == nil {
			return
		}
		victim := obj.(*entry)
		delete(sh.entries, victim.key)
		c.policyEvictions.Add(1)
		if c.tel != nil {
			c.tel.EvictionScan.Observe(uint64(scanned))
		}
	}
}

// insertShardLocked adds or replaces the entry for key, charging the
// byte budget and enforcing this shard's slice of it. It returns nil
// when the admission doorkeeper declines a first-sighted key — the
// caller serves the fetched item without caching it, which is always
// consistency-safe (an uncached read is just a permanent cold read).
// Callers hold sh.mu.
//
//tcache:hotpath
//tcache:holds shard
func (c *Cache) insertShardLocked(sh *cacheShard, key kv.Key, item kv.Item) *entry {
	if e, ok := sh.entries[key]; ok {
		if e.item.Version.Less(item.Version) {
			if c.cfg.Multiversion > 1 {
				c.pushVersionLocked(e, item)
			} else {
				e.item = item
				e.fetchedAt = c.clk.Now()
			}
			// In-place replacement changed the entry's footprint: re-charge
			// it (update accounting, not just insert) and re-enforce.
			sh.ev.Update(&e.h, e.cost())
		} else if e.item.Version == item.Version {
			// Re-fetch confirmed the cached item is still current: restart
			// its TTL (a batch prefetch of a TTL-expired entry lands here)
			// and, under multiversioning, clear the superseded mark.
			e.fetchedAt = c.clk.Now()
			e.staleLatest = false
		}
		sh.ev.Touch(&e.h)
		c.enforceBudgetLocked(sh)
		return e
	}
	if sh.ev.Bounded() && !sh.ev.Admit(string(key)) {
		c.metrics.AdmissionRejects.Add(1)
		return nil
	}
	e := &entry{key: key, item: item, fetchedAt: c.clk.Now()}
	sh.entries[key] = e
	sh.ev.Add(&e.h, e, e.cost())
	c.enforceBudgetLocked(sh)
	return e
}
