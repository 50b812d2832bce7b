package tcache

// The unified write path. One API — Update(ctx, func(tx *Tx) error) —
// implemented by every tier of the deployment, each running the closure
// against optimistic snapshot reads and committing reads-and-writes in
// one validated commit:
//
//   - *DB commits in process, through the database's CommitUpdate;
//   - *Remote commits in ONE validated wire round trip;
//   - *Cache and *ClusterCache do the same, serving the closure's reads
//     from the cache when possible, and on commit install their own
//     writes — the committed items, rebuilt from the commit's answer —
//     locally and synchronously, so the edge reads its writes from its
//     own cache, with no refetch and before the asynchronous
//     invalidation stream catches up.
//
// All of them run one driver, occUpdate, so contended writers retry
// identically whether they commit in process, over the wire, or through
// a cluster — except that updates on one cache wait for each other
// instead of conflicting (core.Cache.Commit).

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/kv"
	"tcache/internal/transport"
)

// Updater is the unified write capability: run fn inside a serializable
// update transaction, committing on nil return and rolling back on
// error, with concurrency conflicts retried transparently. It is
// implemented by *DB, *Remote, *Cache, and *ClusterCache, so
// application code performing read-modify-write is indifferent to
// whether it runs in the datacenter, at the edge against a remote
// database, or behind a whole cluster tier.
type Updater interface {
	Update(ctx context.Context, fn func(tx *Tx) error) error
}

var _ = []Updater{(*DB)(nil), (*Remote)(nil), (*Cache)(nil), (*ClusterCache)(nil)}

// ObservedRead is one read an optimistic update transaction observed:
// the key, the version served, and whether the key existed.
type ObservedRead = kv.ObservedRead

// KeyValue is one buffered write of an update transaction.
type KeyValue = kv.KeyValue

// ConflictError details a rejected optimistic commit: the observed read
// that failed validation and the version now committed for it. It wraps
// ErrConflict; Update retries these internally, so applications only see
// it if they inspect errors returned by fn or use UpdaterBackend
// directly.
type ConflictError = db.ConflictError

// UpdaterBackend is the optional write extension of Backend: one
// optimistic update transaction validated and committed atomically —
// the observed read versions are re-checked against the committed state
// and the writes applied only if all still match; a mismatch fails with
// a *ConflictError. *DB and *Remote implement it (and so does the
// cluster tier), which is what lets a Cache attached to them offer
// Update.
//
// A backend that can also report what it committed implements the
// optional extension CommitBackend; a cache in front of one keeps its own
// committed writes instead of evicting them.
type UpdaterBackend interface {
	ValidatedUpdate(ctx context.Context, reads []ObservedRead, writes []KeyValue) (Version, error)
}

// CommitResult is a commit's answer: its version and, per write, the
// dependency list the database stored with it.
type CommitResult = kv.CommitResult

// CommitBackend is the optional extension of UpdaterBackend: the same
// validated commit, answering with a CommitResult. Cache.Update prefers
// it — the written items are installed in the cache (commit install) —
// and falls back to ValidatedUpdate plus self-invalidation behind a
// backend that has only that. *DB, *Remote and the cluster tier
// implement both, ValidatedUpdate as CommitUpdate minus the lists.
type CommitBackend interface {
	CommitUpdate(ctx context.Context, reads []ObservedRead, writes []KeyValue) (CommitResult, error)
}

var (
	_ = []UpdaterBackend{(*DB)(nil), (*Remote)(nil), (*clusterBackend)(nil)}
	_ = []CommitBackend{(*DB)(nil), (*Remote)(nil), (*clusterBackend)(nil)}
)

// ErrUpdatesUnsupported reports an Update on a cache whose backend does
// not implement UpdaterBackend.
var ErrUpdatesUnsupported = errors.New("tcache: backend does not support updates")

// Tx is the transaction handle passed to an Updater's Update closure:
// reads within the transaction, buffered writes that become visible
// atomically at commit.
type Tx struct {
	h *occTx
}

// Get reads key within the update transaction: the transaction's own
// buffered write if there is one, otherwise the backing snapshot (the
// cache, or a lock-free backend read — re-validated at commit). The
// boolean reports whether the key exists; ctx bounds a remote read.
//
// As everywhere in this package, the returned Value may share memory
// with the store or cache and must be treated as read-only; Clone it
// before modifying.
func (t *Tx) Get(ctx context.Context, key Key) (Value, bool, error) {
	return t.h.get(ctx, key)
}

// GetMulti reads keys, in order, within the update transaction — one Get
// per key in meaning, but the keys the transaction has neither written
// nor read yet are fetched together: one cache pass, one backend request
// for all that miss, one round trip to a remote database instead of one
// per key. A key that does not exist yields a nil Value (use Get to tell
// it from a key stored with one).
//
// Like Get, the returned Values must be treated as read-only.
func (t *Tx) GetMulti(ctx context.Context, keys ...Key) ([]Value, error) {
	return t.h.getMulti(ctx, keys)
}

// Set buffers a write of key within the update transaction; it becomes
// visible (and durable, on a durable DB) atomically at commit.
func (t *Tx) Set(key Key, value Value) error {
	return t.h.set(key, value)
}

// --- Shared conflict-retry driver ---------------------------------------

// retryConflicts runs attempt, retrying ErrConflict failures with
// jittered exponential backoff until ctx is cancelled. occUpdate, and so
// every Updater, commits through it, so conflict behavior is identical
// across the in-process, remote, and cluster write paths. A
// localConflict is retried at once: the newer version is cached already.
func retryConflicts(ctx context.Context, attempt func(ctx context.Context) error) error {
	backoff := time.Millisecond
	const maxBackoff = 100 * time.Millisecond
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := attempt(ctx)
		if err == nil || !errors.Is(err, ErrConflict) {
			return err
		}
		if _, local := err.(localConflict); local {
			continue
		}
		// Conflict: back off with jitter so colliding retriers spread out
		// instead of livelocking in step.
		if err := transport.SleepJittered(ctx, backoff); err != nil {
			return err
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// localConflict is a core.StaleRead: a conflict found before the round trip.
type localConflict struct{ *ConflictError }

func (e localConflict) Unwrap() error { return e.ConflictError }

// --- *DB: the in-process implementation --------------------------------

// Update implements Updater: fn runs against optimistic snapshot reads
// (lock-free reads of the committed state), the writes are buffered, and
// the transaction commits through CommitUpdate — the driver Remote and
// Cache use, minus the wire and the cache. A commit whose reads went
// stale is retried against fresh reads with jittered exponential
// backoff; cancelling ctx stops the retry loop and unblocks any lock
// wait the commit is queued in.
func (d *DB) Update(ctx context.Context, fn func(tx *Tx) error) error {
	return occUpdate(ctx, fn, d, d.CommitUpdate)
}

// CommitUpdate implements CommitBackend on the in-process database: the
// transaction's keys are locked in key order, the observed reads
// compared with the committed versions, and the writes committed only
// if every version still matches.
func (d *DB) CommitUpdate(ctx context.Context, reads []ObservedRead, writes []KeyValue) (CommitResult, error) {
	return d.inner.CommitUpdate(ctx, reads, writes)
}

// ValidatedUpdate implements UpdaterBackend: CommitUpdate without the
// lists.
func (d *DB) ValidatedUpdate(ctx context.Context, reads []ObservedRead, writes []KeyValue) (Version, error) {
	return d.inner.ValidatedUpdate(ctx, reads, writes)
}

// --- Optimistic implementation (Remote, Cache, ClusterCache) --------------

// snapshot is the source an optimistic transaction reads from: the cache
// for a cache-attached updater, lock-free backend reads otherwise.
type snapshot interface {
	ReadItem(ctx context.Context, key Key) (Item, bool, error)
	ReadItems(ctx context.Context, keys []Key) ([]Lookup, error)
}

// occTx is an optimistic update transaction: snapshot reads recorded
// first-read-wins (so the closure sees a stable snapshot and the commit
// can validate it), writes buffered until commit.
type occTx struct {
	snap   snapshot
	reads  []ObservedRead
	vals   []Value // value at first read, aligned with reads
	writes []KeyValue
	// ahead holds what a retry fetched, in one request, for the keys the
	// failed attempt read (aheadKeys, positionally): the closure's first
	// read of one of them is served — and only then recorded — from here.
	aheadKeys []Key
	ahead     []Lookup
}

// held returns key's value if the transaction wrote it (read-your-writes
// within the closure) or read it before (repeat reads serve the recorded
// observation: the closure sees one stable snapshot even if the backend
// moves underneath it).
func (o *occTx) held(key Key) (val Value, found, ok bool) {
	for i := range o.writes {
		if o.writes[i].Key == key {
			return o.writes[i].Value.Clone(), true, true
		}
	}
	for i := range o.reads {
		if o.reads[i].Key == key {
			return o.vals[i], o.reads[i].Found, true
		}
	}
	return nil, false, false
}

// observe records the first read of key and returns what the closure sees.
func (o *occTx) observe(key Key, lu Lookup) Value {
	o.reads = append(o.reads, ObservedRead{Key: key, Version: lu.Item.Version, Found: lu.Found})
	o.vals = append(o.vals, lu.Item.Value)
	return lu.Item.Value
}

func (o *occTx) get(ctx context.Context, key Key) (Value, bool, error) {
	if val, found, ok := o.held(key); ok {
		return val, found, nil
	}
	if i := slices.Index(o.aheadKeys, key); i >= 0 {
		return o.observe(key, o.ahead[i]), o.ahead[i].Found, nil
	}
	item, found, err := o.snap.ReadItem(ctx, key)
	if err != nil {
		return nil, false, err
	}
	return o.observe(key, Lookup{Item: item, Found: found}), found, nil
}

func (o *occTx) getMulti(ctx context.Context, keys []Key) ([]Value, error) {
	var fetch []Key
	for _, key := range keys {
		if _, _, ok := o.held(key); !ok && !slices.Contains(fetch, key) && !slices.Contains(o.aheadKeys, key) {
			fetch = append(fetch, key)
		}
	}
	if len(fetch) > 0 {
		lookups, err := o.snap.ReadItems(ctx, fetch)
		if err != nil {
			return nil, err
		}
		for j, lu := range lookups {
			o.observe(fetch[j], lu)
		}
	}
	// Every key is held or fetched ahead now: get serves it locally.
	vals := make([]Value, len(keys))
	for i, key := range keys {
		var err error
		if vals[i], _, err = o.get(ctx, key); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

func (o *occTx) set(key Key, value Value) error {
	v := value.Clone()
	for i := range o.writes {
		if o.writes[i].Key == key {
			o.writes[i].Value = v
			return nil
		}
	}
	o.writes = append(o.writes, KeyValue{Key: key, Value: v})
	return nil
}

// occUpdate is the shared optimistic driver: run fn against snapshot
// reads, commit the observed read versions plus buffered writes in one
// validated commit, and retry conflicts — each retry first fetching the
// failed attempt's read set in one request, so a closure that reads key
// by key pays one round trip for its second try, not one per key.
func occUpdate(ctx context.Context, fn func(tx *Tx) error, snap snapshot, commit core.CommitFunc) error {
	var again []Key // the read set of the attempt that just conflicted
	return retryConflicts(ctx, func(ctx context.Context) error {
		o := &occTx{snap: snap}
		if len(again) > 0 {
			ahead, err := snap.ReadItems(ctx, again)
			if err != nil {
				return err
			}
			o.aheadKeys, o.ahead = again, ahead
		}
		if err := fn(&Tx{h: o}); err != nil {
			return err
		}
		if _, err := commit(ctx, o.reads, o.writes); err != nil {
			again = again[:0]
			for _, r := range o.reads {
				again = append(again, r.Key)
			}
			return err
		}
		return nil
	})
}

// Update implements Updater over the wire: fn runs against optimistic
// snapshot reads (lock-free ReadItem round trips), the writes are
// buffered, and the whole transaction commits in ONE OpUpdate round
// trip carrying the observed read versions — the database validates
// them under lock and commits atomically, or rejects the stale snapshot
// with a conflict, which is retried here against fresh reads.
//
// Cancelling ctx abandons the in-flight round trip; a commit frame
// already sent may still apply at the database (the outcome of the
// abandoned attempt is unknown, as with any cancelled remote write).
func (r *Remote) Update(ctx context.Context, fn func(tx *Tx) error) error {
	// Reads go through the failover-aware path, so a retry loop follows
	// the Remote to a promoted standby instead of pinning a dead client.
	return occUpdate(ctx, fn, r, r.CommitUpdate)
}

// Update implements Updater on a cache: fn's reads are served from the
// cache when it can (missing keys fill from the backend as usual), the
// writes are buffered, and the transaction commits through the backend's
// write extension — for a *Remote backend that is one wire round trip;
// through a cluster tier, one round trip to a relaying edge node. The
// cache requires its Backend to implement UpdaterBackend and returns
// ErrUpdatesUnsupported otherwise.
//
// On commit the cache keeps what it wrote (commit install): a
// CommitBackend answers with the commit version and each write's stored
// dependency list, which with the transaction's own values are the
// committed items — exactly what a read-through right after the commit
// would have cached — and they are installed locally and synchronously.
// A read on this cache immediately after Update is a hit on the written
// value: read-your-writes at the edge without a refetch, even while the
// asynchronous invalidation stream is still in flight (or lossy; its echo
// of this commit then counts as a stale invalidation). Behind a backend
// that is only an UpdaterBackend the commit answers with a bare version
// and the cache falls back to self-invalidation: it evicts its copies of
// the written keys, and the next read refetches them.
//
// Updates on one cache wait for each other instead of conflicting: while
// a commit is in flight its written keys are marked, and a read of a
// marked key waits (bounded by ctx) for what it installs. A read the
// cache already holds newer fails the attempt before its round trip, and
// the retry runs at once. A conflict the database reports evicts the
// stale cached copy, so the retry (after backoff) re-reads through.
func (c *Cache) Update(ctx context.Context, fn func(tx *Tx) error) error {
	if c.updateHist == nil {
		return c.update(ctx, fn)
	}
	start := time.Now()
	err := c.update(ctx, fn)
	c.updateHist.ObserveSince(start)
	return err
}

// cacheSnapshot reads an optimistic transaction's snapshot through the
// cache, once the cache's commits in flight on its keys are done.
type cacheSnapshot struct{ c *core.Cache }

func (s cacheSnapshot) ReadItem(ctx context.Context, key Key) (Item, bool, error) {
	if err := s.c.AwaitCommits(ctx, key); err != nil {
		return Item{}, false, err
	}
	return s.c.GetItem(ctx, key, kv.Version{})
}

func (s cacheSnapshot) ReadItems(ctx context.Context, keys []Key) ([]Lookup, error) {
	if err := s.c.AwaitCommits(ctx, keys...); err != nil {
		return nil, err
	}
	return s.c.GetItems(ctx, keys, kv.Version{})
}

func (c *Cache) update(ctx context.Context, fn func(tx *Tx) error) error {
	if c.commit == nil {
		return fmt.Errorf("%w (%T)", ErrUpdatesUnsupported, c.inner.Backend())
	}
	return occUpdate(ctx, fn, cacheSnapshot{c.inner},
		func(ctx context.Context, reads []ObservedRead, writes []KeyValue) (CommitResult, error) {
			res, err := c.inner.Commit(ctx, c.commit, reads, writes)
			if err == nil {
				return res, nil
			}
			if stale, ok := err.(*core.StaleRead); ok {
				return res, localConflict{&ConflictError{Key: stale.Key, Current: stale.Cached, Found: true}}
			}
			// Heal the cache: the committed version moved past what we
			// served; evict so the retry refetches.
			var ce *ConflictError
			if errors.As(err, &ce) && ce.Found {
				c.inner.Invalidate(ce.Key, ce.Current)
			}
			return res, err
		})
}
