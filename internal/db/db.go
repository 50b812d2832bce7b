// Package db implements the backend: a serializable transactional
// key-value store with per-key strict two-phase locking, Lamport-style
// version assignment, and dependency-list maintenance as specified in
// §III-A of the paper. The cache needs only serializable update
// transactions that mint versions and keep dependency lists, so the
// database commits as one participant: a commit is one write-ahead-log
// record applied to one store.
//
// Every update transaction is one CommitUpdate call carrying the reads
// its caller observed and the writes it makes: the keys are locked up
// front in key order, the reads validated, and the writes committed at
// one new version. Caches use the lock-free single-entry ReadItem and
// ReadItems for miss fills, exactly as the paper's caches do
// ("performing single-entry reads (no locks, no transactions)"), and
// receive asynchronous invalidations through Subscribe.
package db

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"tcache/internal/kv"
	"tcache/internal/lock"
	"tcache/internal/telemetry"
	"tcache/internal/wal"
)

// Errors returned by transaction operations.
var (
	// ErrConflict means an update's observed reads went stale before it
	// could commit (see ConflictError); it should be retried against
	// fresh reads.
	ErrConflict = errors.New("db: transaction conflict")
	// ErrClosed means the database is shut down.
	ErrClosed = errors.New("db: closed")
	// ErrDuplicateSubscriber is returned by Subscribe when the name is
	// already taken: silently replacing the previous sink would starve one
	// of the two caches of invalidations.
	ErrDuplicateSubscriber = errors.New("db: duplicate subscriber name")
)

// Config configures a DB.
type Config struct {
	// NodeID disambiguates versions minted by independent DB deployments.
	// It becomes the Node component of every commit version.
	NodeID uint32
	// DepBound is the maximum dependency-list length k stored per object.
	// 0 disables dependency tracking; kv.Unbounded (-1) never truncates
	// (the Theorem 1 configuration).
	DepBound int
	// DepBoundFor, when non-nil, overrides DepBound per object — the
	// paper's §VII first future direction: "if the workload accesses
	// objects in clusters of different sizes, objects of larger clusters
	// call for longer dependency lists". Return values < 0 mean
	// unbounded; the uniform DepBound is used when DepBoundFor is nil.
	DepBoundFor func(kv.Key) int
	// DepMerge selects how inherited dependency entries are ranked when
	// lists are pruned (default MergeRecency). MergePositional exists
	// for the ablation study; see kv.MergeDeps.
	DepMerge MergePolicy

	// WALSync, for databases opened with Recover, fsyncs every commit
	// batch before it is applied (group commit amortizes the fsyncs
	// across concurrent committers). Without it durability extends only
	// to the OS page cache.
	WALSync bool
	// WALSegmentSize bounds one log segment (0 = the wal default). It
	// also paces snapshots: each time a segment seals, a background
	// snapshot is taken if the log has outgrown its newest image (see
	// wal.Log.SnapshotDue), which truncates the segments it covers.
	WALSegmentSize int64

	// ReplMinSync, when > 0, makes every commit wait until that many
	// standbys have acknowledged its WAL record before returning —
	// synchronous replication: an acknowledged write survives the loss
	// of the primary. 0 (the default) replicates asynchronously.
	ReplMinSync int

	// Telemetry receives latency observations from the commit, WAL, and
	// replication paths. Nil allocates a fresh set — database telemetry
	// is always on (see Telemetry's doc for the cost argument); pass a
	// shared set to aggregate several databases into one registry.
	Telemetry *Telemetry
}

// MergePolicy selects the dependency-list pruning order.
type MergePolicy int

const (
	// MergeRecency (default) ranks inherited entries newest-version
	// first — the paper's LRU: recently refreshed dependencies survive,
	// dependencies of abandoned clusters wash out (Fig. 5).
	MergeRecency MergePolicy = iota
	// MergePositional ranks inherited entries by their position in the
	// first contributing access's list. It looks equivalent but lets
	// stale entries squat in the list forever; the ablation experiment
	// quantifies the damage.
	MergePositional
)

// Invalidation is the asynchronous message the database sends to caches
// after an update transaction: the key written and its new version.
type Invalidation struct {
	Key     kv.Key
	Version kv.Version
}

// InvalidationSink receives invalidations for one subscriber. The database
// invokes sinks synchronously on the committing goroutine; sinks that model
// asynchronous channels (see internal/chaos) schedule their own delivery.
type InvalidationSink func(Invalidation)

// ReadRecord is one read-set entry of a committed update transaction.
type ReadRecord struct {
	Key     kv.Key
	Version kv.Version // version observed by the transaction
}

// CommitRecord describes a committed update transaction; it is what the
// consistency monitor consumes.
type CommitRecord struct {
	TxnID   uint64
	Version kv.Version
	Reads   []ReadRecord
	Writes  []kv.Key
}

// CommitHook observes committed update transactions (Fig. 2's "consistency
// monitor" attaches here). Hooks run synchronously under the commit lock,
// so they observe commits in version order.
type CommitHook func(CommitRecord)

// DB is the transactional backend. It is safe for concurrent use.
type DB struct {
	cfg   Config
	store *store
	locks *lock.Manager

	// commitMu serializes version minting and door-ticket issue, which
	// makes version order equal commit order and keeps hooks totally
	// ordered. The commit lock is taken before any store lock, never
	// after:
	//
	//tcache:lockorder commit < store
	commitMu sync.Mutex //tcache:lockclass commit
	versionC atomic.Uint64
	txnC     atomic.Uint64

	// pinned holds application-declared always-retained dependencies
	// (§VII future direction; see pins.go).
	pinned pinSet

	// subs (in name order) and commitHooks are snapshots: replaced
	// whole, never written in place, so a commit calls them uncopied.
	subMu       sync.Mutex
	subs        []subscriber
	hookMu      sync.Mutex
	commitHooks []CommitHook

	// wal, when non-nil, makes commits durable (see Recover). door
	// sequences the apply phase so version order survives the move of
	// the append outside commitMu (see pipeline.go).
	wal      *wal.Log
	door     *commitDoor
	recovery RecoveryInfo

	// snapMu serializes snapshots; the background worker, joins and the
	// explicit Snapshot entry point share it. walSeq is the newest log
	// segment a record has landed in; a newer one wakes the worker.
	snapMu   sync.Mutex
	walSeq   atomic.Uint64
	snapKick chan struct{}
	snapQuit chan struct{}
	snapDone chan struct{}

	// role is the replication role (primary/standby; see repl.go). It
	// only ever transitions standby -> primary, under commitMu. repl
	// tracks connected replicas, sync-replication waiters, and the
	// leader address.
	role atomic.Int32
	repl replState

	closed   atomic.Bool
	metrics  Metrics
	counters *telemetry.CounterSet // metrics' tagged fields, walked once at Open
	tel      *Telemetry            // never nil; see Config.Telemetry
}

// Open creates a database.
func Open(cfg Config) *DB {
	tel := cfg.Telemetry
	if tel == nil {
		tel = NewTelemetry()
	}
	d := &DB{
		cfg:   cfg,
		store: newStore(),
		locks: lock.NewManager(),
		door:  newCommitDoor(),
		tel:   tel,
	}
	d.counters = telemetry.NewCounterSet(&d.metrics, MetricsSnapshot{})
	d.repl.acked = make(map[string]replAck)
	return d
}

// Close shuts the database down; in-flight waiters fail with ErrClosed.
// A recovered database's write-ahead log is flushed and closed, and the
// error — a commit batch that never reached disk — is returned rather
// than swallowed: it is the caller's last chance to learn that
// acknowledged transactions may not survive the next restart.
func (d *DB) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	d.locks.Close()
	if d.snapDone != nil {
		close(d.snapQuit)
		<-d.snapDone
	}
	if d.wal == nil {
		return nil
	}
	// Quiesce the commit pipeline: take a door ticket under commitMu
	// (ordering this Close after every ticket already issued), then wait
	// it through — every in-flight committer has applied and exited by
	// the time wait returns. Committers that slipped past the closed
	// check above will fail cleanly in wal.Append with ErrClosed.
	d.commitMu.Lock()
	ticket := d.door.enter()
	d.commitMu.Unlock()
	d.door.wait(ticket)
	d.door.exit()
	return d.wal.Close()
}

// DepBound returns the configured dependency-list bound.
func (d *DB) DepBound() int { return d.cfg.DepBound }

// Get performs a lock-free single-entry read of the current committed
// item. It is the uncounted peek (an update's own observations, tests);
// reads served to caches go through ReadItem and ReadItems, which count
// as single_gets. The boolean reports presence. The returned item
// shares the store's backing memory (copy-on-write: commits replace
// items wholesale), so its Value and Deps must be treated as read-only.
func (d *DB) Get(key kv.Key) (kv.Item, bool) {
	return d.store.GetShared(key)
}

// ReadItem is the cache backend read (core.Backend): a lock-free
// single-entry read of the current committed item, the path caches use
// to fill misses. The in-process store never blocks, so ctx is only
// checked for early cancellation.
func (d *DB) ReadItem(ctx context.Context, key kv.Key) (kv.Item, bool, error) {
	if err := ctx.Err(); err != nil {
		return kv.Item{}, false, err
	}
	d.metrics.SingleGets.Add(1)
	item, ok := d.store.GetShared(key)
	return item, ok, nil
}

// ReadItems is the batch form of ReadItem (core.BatchBackend): one Lookup
// per requested key, positionally.
func (d *DB) ReadItems(ctx context.Context, keys []kv.Key) ([]kv.Lookup, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d.metrics.SingleGets.Add(uint64(len(keys)))
	out := make([]kv.Lookup, len(keys))
	for i, k := range keys {
		out[i].Item, out[i].Found = d.store.GetShared(k)
	}
	return out, nil
}

// Seed loads an item without a transaction, for initial data sets. It must
// not be used concurrently with transactions.
func (d *DB) Seed(key kv.Key, value kv.Value, version kv.Version) {
	cur := d.versionC.Load()
	if version.Counter > cur {
		d.versionC.Store(version.Counter)
	}
	d.store.Put(key, kv.Item{Value: value, Version: version})
}

// Subscribe registers an invalidation sink under name. A name already in
// use is rejected with ErrDuplicateSubscriber: silently replacing the
// previous sink (the historical behavior) starved one of two same-named
// caches of invalidations. Each commit calls the sinks in name order.
// Unsubscribe with the returned cancel.
func (d *DB) Subscribe(name string, sink InvalidationSink) (cancel func(), err error) {
	d.subMu.Lock()
	defer d.subMu.Unlock()
	i, taken := slices.BinarySearchFunc(d.subs, name, func(s subscriber, name string) int { return strings.Compare(s.name, name) })
	if taken {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateSubscriber, name)
	}
	d.subs = slices.Insert(slices.Clip(d.subs), i, subscriber{name, sink})
	return func() {
		d.subMu.Lock()
		defer d.subMu.Unlock()
		d.subs = slices.DeleteFunc(slices.Clone(d.subs), func(s subscriber) bool { return s.name == name })
	}, nil
}

type subscriber struct {
	name string
	sink InvalidationSink
}

// OnCommit registers a hook observing every committed update transaction.
func (d *DB) OnCommit(h CommitHook) {
	d.hookMu.Lock()
	defer d.hookMu.Unlock()
	d.commitHooks = append(slices.Clip(d.commitHooks), h)
}

func (d *DB) emitInvalidations(writes []kv.Key, version kv.Version) {
	d.subMu.Lock()
	subs := d.subs
	d.subMu.Unlock()
	for _, s := range subs {
		for _, k := range writes {
			d.metrics.InvalidationsSent.Add(1)
			s.sink(Invalidation{Key: k, Version: version})
		}
	}
}

func (d *DB) runCommitHooks(rec CommitRecord) {
	d.hookMu.Lock()
	hooks := d.commitHooks
	d.hookMu.Unlock()
	for _, h := range hooks {
		h(rec)
	}
}

// Len returns the number of stored objects.
func (d *DB) Len() int { return d.store.Len() }
