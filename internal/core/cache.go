// Package core implements T-Cache, the paper's primary contribution: an
// edge cache that offers a transactional read-only interface on top of the
// usual read/invalidate API, detecting most inconsistencies locally —
// without any round trip to the backend database on cache hits.
//
// The cache stores, alongside each object's value, its commit version and
// its bounded dependency list as maintained by the database (§III-A). For
// every in-flight read-only transaction (a Txn) it keeps a record of the
// versions read and the versions expected by their dependency lists, and
// validates every new read against that record (§III-B, equations 1 and
// 2). On a detected inconsistency it applies one of three strategies:
// ABORT, EVICT, or RETRY.
//
// # Concurrency
//
// The entry table (and its eviction ledger) is hash-partitioned into
// Config.Shards cacheShards, keyed by hashKey (64-bit FNV-1a) — the hash
// that also finds a key's row in a transaction record. A read — one key
// or a batch — is served in one pass (read.go): each entry shard its keys
// touch is locked once to collect the servable items, then the items are
// validated in key order against the transaction's record with no lock
// held, because a record always has exactly one holder. The strategy code
// a failed check falls into locks only the shard of an entry it evicts.
//
// A transaction is a Txn from Begin (the public API's ReadTxn, a cache
// server's read transaction), owned by its caller: nothing locks it. Read,
// the TxnID-keyed form of the paper's interface, parks its open Txn
// between calls under one leaf mutex, never held together with a shard's.
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
// for many keys. Txn.ReadMulti uses it to prefetch all missing keys of a
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
// sitting on top offer the unified read-modify-write API. Backends that
// can also say what they committed implement CommitBackend beside it.
type UpdaterBackend interface {
	ValidatedUpdate(ctx context.Context, reads []kv.ObservedRead, writes []kv.KeyValue) (kv.Version, error)
}

// CommitBackend is the optional extension of UpdaterBackend whose commit
// reports what was committed: the version and the dependency list stored
// with each write (kv.CommitResult). The committing cache installs those
// items (Install) instead of evicting its copies and fetching them back.
// Every in-tree UpdaterBackend implements it; behind one that does not,
// a commit falls back to self-invalidation.
type CommitBackend interface {
	CommitUpdate(ctx context.Context, reads []kv.ObservedRead, writes []kv.KeyValue) (kv.CommitResult, error)
}

// CommitFunc is the commit call of a backend's write extension.
type CommitFunc func(ctx context.Context, reads []kv.ObservedRead, writes []kv.KeyValue) (kv.CommitResult, error)

// Committer returns b's commit call: CommitBackend's when b has it, else
// UpdaterBackend's answering with a bare version (no lists), else nil —
// b takes no updates.
func Committer(b Backend) CommitFunc {
	switch b := b.(type) {
	case CommitBackend:
		return b.CommitUpdate
	case UpdaterBackend:
		return func(ctx context.Context, reads []kv.ObservedRead, writes []kv.KeyValue) (kv.CommitResult, error) {
			version, err := b.ValidatedUpdate(ctx, reads, writes)
			return kv.CommitResult{Version: version}, err
		}
	default:
		return nil
	}
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
// locks analyzer enforces that.
//
//tcache:hook
type CompletionHook func(Completion)

// Config configures a Cache.
type Config struct {
	// Backend fills cache misses. Required.
	Backend Backend
	// Clock drives TTL expiry. Defaults to clock.Real.
	Clock clock.Clock
	// Strategy is the inconsistency reaction (default StrategyAbort).
	Strategy Strategy
	// TTL bounds the life span of cache entries; 0 disables expiry.
	// The TTL-based baseline of Fig. 7(d) sets this and disables
	// dependency checking at the database (DepBound 0).
	TTL time.Duration
	// MaxBytes bounds the resident byte footprint of the cache: each
	// entry is charged key length + value length + evict.EntryOverhead.
	// 0 means unbounded (the paper's prototype: "all objects in the
	// workload fit in the cache"). The budget is split across shards; each
	// shard enforces its slice under its own lock with the configured
	// eviction Policy, so bounded caches scale with cores exactly like
	// unbounded ones.
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
	// Shards is the number of lock stripes the entry table (with its
	// per-shard eviction state) is split over. 0 picks
	// runtime.GOMAXPROCS(0) whether or not the cache is bounded: budgets
	// are enforced per shard (each shard owns ≈ MaxBytes/Shards, at
	// least one unit), so a memory bound no longer costs the lock
	// striping. 1 makes per-shard LRU exactly global LRU. With
	// Shards > 1 eviction is approximately global: each shard ranks
	// only its own residents. The transaction counters are striped
	// separately (txnStripes) and own no budget.
	Shards int
	// Telemetry, when non-nil, receives latency observations from the
	// read paths (sampled warm hits, cold fills, whole batches). Nil
	// disables instrumentation entirely — the read paths take no time
	// stamps.
	Telemetry *Telemetry
}

// Cache is a T-Cache server. It is safe for concurrent use.
type Cache struct {
	cfg Config
	clk clock.Clock

	shards  []*cacheShard
	stripes []txnStripe // txnStripes of them, each on its own cache lines

	// hash is hashKey; a test swaps it to force collisions.
	hash func(kv.Key) uint64

	closed atomic.Bool

	// parked holds the open transactions of Read between its calls, by
	// TxnID; nil until the first.
	parkMu sync.Mutex //tcache:lockclass parked
	parked map[kv.TxnID]*Txn

	marks commitMarks // the keys of commits in flight (commit.go)

	// hooks is copy-on-write: OnComplete (serialized by hookMu) stores
	// a fresh slice, emit reads it with one atomic load and no lock.
	hookMu sync.Mutex
	hooks  atomic.Pointer[[]CompletionHook]

	metrics  Metrics
	counters *telemetry.CounterSet // metrics' tagged fields, walked once at New
	tel      *Telemetry            // nil = telemetry off; see Config.Telemetry

	// policyEvictions points at the per-policy eviction counter the
	// active policy increments (metrics.EvictionsLRU/Clock/Cost),
	// resolved once at New so the eviction path never switches on the
	// policy kind.
	policyEvictions *uint64v
}

// The locking protocol, as enforced by tcachelint's locks analyzer: an
// entry shard's mutex (lock class shard) is the only lock a read, fill or
// eviction takes, one at a time. Read's parkMu (class parked) is a leaf
// that guards the parked map alone: no lockorder relation joins it to
// another class, so any nesting is flagged. A commit's claim takes the
// mark table's (class marks) before a shard's.

// The counters every read and every transaction moves are not Metrics'
// shared atomics: each is kept beside the shard or stripe it belongs to
// and summed by Cache.Metrics, so serving hits on two cores writes no
// shared counter line. Non-transactional reads count on the entry shard
// that served them, in plain integers under its mutex (shardCounts). A
// transaction counts on its stripe (stripeFor of its TxnID), atomically
// and lock-free: its start at its first read, each read pass's hits and
// misses at the end of the pass (a warm pass adds one counter), its
// commit when it ends — the stripe line that TxnID's transactions have
// always written. reads is hits + misses.

// hotNames lists a stripe's counters by their Metrics tags, in index
// order; the first two are a shard's as well.
var hotNames = [...]string{"hits", "misses", "txns_started", "txns_committed"}

const (
	hotHits = iota
	hotMisses
	hotTxnsStarted
	hotTxnsCommitted
)

// shardCounts are an entry shard's read counters: hits and misses.
type shardCounts [hotMisses + 1]uint64

// count adds n reads, hits of them served from the cache.
func (h *shardCounts) count(n, hits uint64) {
	h[hotHits] += hits
	h[hotMisses] += n - hits
}

// cacheShard is one lock stripe of the entry table: a partition of the key
// space with its own mutex and its own slice of the eviction budget.
type cacheShard struct {
	mu  sync.Mutex //tcache:lockclass shard
	hot shardCounts
	// warmHits counts hits served with telemetry on; it is the shard's
	// warm-sample clock (lookupLocked).
	warmHits uint64
	entries  map[kv.Key]*entry
	// ev is this shard's eviction ledger: byte budget, policy state,
	// and optional admission doorkeeper. Its zero value is the
	// unbounded no-op, and every call into it is made under mu.
	ev evict.Shard
	_  [64]byte // keeps the next shard's mutex off this shard's last line
}

// txnStripes is the number of stripes of the transaction counters.
// Stripes own no budget, so there are many: consecutive TxnIDs land on
// different stripes and concurrent transactions rarely meet.
const txnStripes = 64

// txnStripe is one stripe of the transaction counters, padded to two
// cache lines so neighbours in Cache.stripes never share one.
type txnStripe struct {
	hot [len(hotNames)]uint64v
	_   [96]byte // 32 bytes of counters + 96 = 128
}

// entry is one cached key. It holds exactly one committed version: an
// invalidation or a stale-read eviction removes it, and a newer fill
// replaces it. It keeps no superseded versions (TxCache-style retention,
// §VI): at default parameters retention raised committed inconsistency
// by 2.2–4.2 points under every strategy and topology, turning detected
// aborts into undetected inconsistency (ROADMAP item 12b).
type entry struct {
	key  kv.Key
	item kv.Item
	// depHash[i] is the key hash of item.Deps[i] (hashDeps). Like the
	// item it is replaced whole, never written in place: reads carry the
	// slice out of the shard lock.
	depHash   []uint64
	fetchedAt time.Time
	// confirmed is the highest read floor a backend fetch has returned
	// this entry (or found it still current) under: floors up to it are
	// served from the cache although item.Version — the key's own last
	// write — may be older than a floor a neighbouring key's commit
	// raised. It lives and dies with the entry, so whatever evicts a
	// rewritten key also takes its mark.
	confirmed kv.Version
	// h is the entry's intrusive eviction node (policy list links, byte
	// cost, reference bit); owned by the shard's evict ledger, guarded
	// by the shard mutex.
	h evict.Handle
}

// recRow is what one transaction knows about one key: the largest version
// any of its reads (or their dependency lists) expects of it and, once the
// key itself was read, the version first returned.
type recRow struct {
	// hash is the key's hash, compared before the string: a workload's
	// keys are same-length, same-prefix strings, so a string mismatch is
	// decided at its last bytes and a hash mismatch in one compare.
	hash     uint64
	key      kv.Key
	expected kv.Version
	read     kv.Version // valid when seq > 0
	// seq is the key's 1-based position among the transaction's first
	// reads; 0 marks a key only dependency lists have named so far.
	seq int32
}

// keyTable holds rows in insertion order: a small slice searched
// linearly, not a map — transactions read a handful of keys (the paper's
// workloads read ~5), and at that size an append beats a map allocation
// plus hashed inserts on every read. idx stays nil until the table
// outgrows txnRecordSpill, so a huge batch degrades to O(1) map lookups
// instead of quadratic scans under a lock.
type keyTable struct {
	rows []recRow
	idx  map[kv.Key]int32
}

// txnRecordSpill is the table size beyond which a key index is built.
const txnRecordSpill = 32

// find returns the index of key's row among the rows from index from on,
// or -1; hash is the key's hash.
func (t *keyTable) find(from int, hash uint64, key kv.Key) int32 {
	if t.idx != nil {
		if i, ok := t.idx[key]; ok {
			return i
		}
		return -1
	}
	for i := from; i < len(t.rows); i++ {
		if t.rows[i].hash == hash && t.rows[i].key == key {
			return int32(i)
		}
	}
	return -1
}

// add appends a row for key (not yet in the table) and returns its index.
// It grows the rows by hand, not by append, so that a table built on a
// caller's scratch (a stack buffer, a pooled Txn's) does not make the
// scratch escape.
func (t *keyTable) add(hash uint64, key kv.Key) int32 {
	n := len(t.rows)
	if t.idx == nil && n >= txnRecordSpill {
		t.idx = make(map[kv.Key]int32, 2*n)
		for i := range t.rows {
			t.idx[t.rows[i].key] = int32(i)
		}
	}
	if t.idx != nil {
		t.idx[key] = int32(n)
	}
	if n == cap(t.rows) {
		t.rows = append(make([]recRow, 0, 2*n+4), t.rows...)
	}
	t.rows = t.rows[:n+1]
	t.rows[n] = recRow{hash: hash, key: key}
	return int32(n)
}

// txnRecord tracks one in-flight read-only transaction: one row per key
// it has read or seen named in a dependency list, which serves the
// eq.1/eq.2 lookups and the completion report. It is part of its Txn and
// belongs to whoever holds that.
type txnRecord struct {
	keyTable
	nread int32   // keys read so far: the last seq handed out
	at    []int32 // admit's scratch: the rows of the key and its dependencies
	// Inline backing arrays sized for the common case (~5 keys whose ~5
	// dependencies mostly name each other): a record needs no allocation
	// of its own, and larger transactions spill to the heap via ordinary
	// append.
	rowsBuf [12]recRow
	atBuf   [8]int32
}

// reset empties the record, its slices pointing back at the inline
// buffers.
func (rec *txnRecord) reset() {
	rec.keyTable = keyTable{rows: rec.rowsBuf[:0]}
	rec.nread, rec.at = 0, rec.atBuf[:0]
}

// readSet returns each key's first read, in read order.
func (rec *txnRecord) readSet() []ReadVersion {
	if rec.nread == 0 {
		return nil
	}
	out := make([]ReadVersion, rec.nread)
	for i := range rec.rows {
		if row := &rec.rows[i]; row.seq > 0 {
			out[row.seq-1] = ReadVersion{Key: row.key, Version: row.read}
		}
	}
	return out
}

// hashKey is the cache's key hash, 64-bit FNV-1a: it picks a key's entry
// shard and finds its row in a transaction record. It is deterministic —
// which entries share a shard's byte budget, and so what a bounded cache
// evicts, must not change from one process to the next.
func hashKey(key kv.Key) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// hashDeps returns the hashes of deps' keys, positionally; nil for an
// empty list. It is computed once per cached item, when the item enters
// the cache, and lives with the entry — never in kv.DepEntry, whose
// encodings (wire, WAL, store) it would grow.
func (c *Cache) hashDeps(deps kv.DepList) []uint64 {
	if len(deps) == 0 {
		return nil
	}
	out := make([]uint64, len(deps))
	for i := range deps {
		out[i] = c.hash(deps[i].Key)
	}
	return out
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
		stripes: make([]txnStripe, txnStripes),
		hash:    hashKey,
		tel:     cfg.Telemetry,
	}
	c.bindCounters()
	for i := range c.shards {
		c.shards[i] = &cacheShard{entries: make(map[kv.Key]*entry)}
	}
	c.marks.keys = make(map[kv.Key]chan struct{})
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
	return c, nil
}

// Shards returns the number of lock stripes the cache was built with.
func (c *Cache) Shards() int { return len(c.shards) }

// Backend returns the backend the cache fills misses from, so owners
// (the cache server relaying updates, the public API's write path) can
// discover its optional capabilities — BatchBackend, UpdaterBackend.
func (c *Cache) Backend() Backend { return c.cfg.Backend }

// shardIndex maps a key hash onto an entry shard. The two halves are
// folded because FNV-1a's lowest bits are its weakest.
func (c *Cache) shardIndex(hash uint64) int32 {
	return int32(uint32(hash^hash>>32) % uint32(len(c.shards)))
}

// shardFor returns the entry shard responsible for key.
func (c *Cache) shardFor(key kv.Key) *cacheShard {
	return c.shards[c.shardIndex(c.hash(key))]
}

// stripeFor returns the transaction stripe responsible for txnID.
func (c *Cache) stripeFor(txnID kv.TxnID) *txnStripe {
	return &c.stripes[uint64(txnID)%txnStripes]
}

// Close ends every in-flight transaction as aborted-on-close, reporting
// each as an uncommitted Completion to the registered hooks (so monitors
// never undercount aborts): those parked by Read at once, one a caller
// holds (Begin's, or Read's mid-call) at its next read or Finish.
// Subsequent reads fail with ErrClosed. Close is idempotent.
func (c *Cache) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	c.parkMu.Lock()
	parked := c.parked
	c.parked = nil
	c.parkMu.Unlock()
	for _, t := range parked {
		t.Finish(false) // meets the closed cache: aborted-on-close
	}
}

// OnComplete registers a hook observing every finished transaction.
func (c *Cache) OnComplete(h CompletionHook) {
	c.hookMu.Lock()
	defer c.hookMu.Unlock()
	var hooks []CompletionHook
	if cur := c.hooks.Load(); cur != nil {
		hooks = append(hooks, *cur...)
	}
	hooks = append(hooks, h)
	c.hooks.Store(&hooks)
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
	if e.item.Version.Less(version) {
		sh.removeEntry(e)
		c.metrics.InvalidationsApplied.Add(1)
		return
	}
	c.metrics.InvalidationsStale.Add(1)
}

// Install caches item as key's committed state without a fetch: the
// fill of a miss whose answer the caller already holds — the committing
// client's own write, rebuilt from the commit's version and dependency
// list. It is insertShardLocked under the shard lock, so it obeys what
// every fill obeys: an entry already at a newer version stays, an older
// one is replaced in place, the byte budget is enforced, the admission
// doorkeeper may decline a first-sighted key, and nothing is inserted
// after Close; CommitInstalls counts the items kept. And like a fill it
// can cross a newer invalidation that arrived first and found nothing to
// evict: the item is then cached behind the database until the §III-B
// checks or the next invalidation catch it — the exposure of any fetch
// that crosses an invalidation, no more.
func (c *Cache) Install(key kv.Key, item kv.Item) {
	if c.closed.Load() {
		return
	}
	sh := c.shardFor(key)
	sh.mu.Lock()
	e := c.insertShardLocked(sh, key, item)
	sh.mu.Unlock()
	if e != nil {
		c.metrics.CommitInstalls.Add(1)
	}
}

// sumShards adds up f over the entry shards, each under its lock.
func (c *Cache) sumShards(f func(*cacheShard) uint64) (n uint64) {
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += f(sh)
		sh.mu.Unlock()
	}
	return n
}

// hotSum adds up hot counter i over the stripes and, for hits and
// misses, over the shards.
func (c *Cache) hotSum(i int) (n uint64) {
	for s := range c.stripes {
		n += c.stripes[s].hot[i].Load()
	}
	if i < len(shardCounts{}) {
		n += c.sumShards(func(sh *cacheShard) uint64 { return sh.hot[i] })
	}
	return n
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	return int(c.sumShards(func(sh *cacheShard) uint64 { return uint64(len(sh.entries)) }))
}

// ResidentBytes returns the bytes the cache holds, bounded or not: the
// running sum of entry costs (evict.EntryOverhead + key + value) the
// shards maintain, not a walk over the entries, so it is exact with
// respect to the accounting a budget enforces.
func (c *Cache) ResidentBytes() uint64 {
	return c.sumShards(func(sh *cacheShard) uint64 { return sh.ev.Used() })
}

// MaxBytes returns the configured total byte budget (0 when unbounded).
func (c *Cache) MaxBytes() uint64 { return uint64(c.cfg.MaxBytes) }

// EvictionPolicy returns the configured eviction policy kind.
func (c *Cache) EvictionPolicy() evict.Kind { return c.cfg.Policy }

// ActiveTxns returns the number of transactions begun and not yet ended,
// held by their callers or parked by Read: every start counted, less
// every ending.
func (c *Cache) ActiveTxns() int {
	// Endings first: a transaction they include began earlier, so the
	// starts loaded afterwards include it too.
	ended := c.hotSum(hotTxnsCommitted) + c.metrics.TxnsAborted.Load() +
		c.metrics.TxnsAbortedOnClose.Load()
	return int(c.hotSum(hotTxnsStarted) - ended)
}

// Cached returns the version of key's cached entry, if there is one
// (ignoring TTL).
func (c *Cache) Cached(key kv.Key) (kv.Version, bool) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok {
		return kv.Version{}, false
	}
	return e.item.Version, true
}

// removeEntry unlinks e from the shard's map and eviction ledger
// (refunding its byte cost). Callers hold sh.mu.
//
//tcache:holds shard
func (sh *cacheShard) removeEntry(e *entry) {
	delete(sh.entries, e.key)
	sh.ev.Remove(&e.h)
}

// cost is the byte cost charged against the budget for e: key + value +
// per-entry overhead.
func (e *entry) cost() uint64 {
	return uint64(evict.EntryOverhead) + uint64(len(e.key)) + uint64(len(e.item.Value))
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

// setItemLocked makes item the entry's current version, with the hashes
// of its dependency keys. Callers hold the entry's shard mutex.
//
//tcache:holds shard
func (c *Cache) setItemLocked(e *entry, item kv.Item) {
	e.item, e.depHash = item, c.hashDeps(item.Deps)
}

// insertShardLocked adds or replaces the entry for key, charging the
// byte budget and enforcing this shard's slice of it. It returns nil
// when the admission doorkeeper declines a first-sighted key — the
// caller serves the fetched item without caching it, which is always
// consistency-safe (an uncached read is just a permanent cold read).
// Callers hold sh.mu.
//
//tcache:holds shard
func (c *Cache) insertShardLocked(sh *cacheShard, key kv.Key, item kv.Item) *entry {
	if e, ok := sh.entries[key]; ok {
		if e.item.Version.Less(item.Version) {
			c.setItemLocked(e, item)
			e.fetchedAt = c.clk.Now()
			// In-place replacement changed the entry's footprint: re-charge
			// it (update accounting, not just insert) and re-enforce.
			sh.ev.Update(&e.h, e.cost())
		} else if e.item.Version == item.Version {
			// Re-fetch confirmed the cached item is still current: restart
			// its TTL (a batch prefetch of a TTL-expired entry lands here).
			e.fetchedAt = c.clk.Now()
		}
		sh.ev.Touch(&e.h)
		c.enforceBudgetLocked(sh)
		return e
	}
	if sh.ev.Bounded() && !sh.ev.Admit(string(key)) {
		c.metrics.AdmissionRejects.Add(1)
		return nil
	}
	e := &entry{key: key, fetchedAt: c.clk.Now()}
	c.setItemLocked(e, item)
	sh.entries[key] = e
	sh.ev.Add(&e.h, e, e.cost())
	c.enforceBudgetLocked(sh)
	return e
}
