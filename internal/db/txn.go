package db

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"tcache/internal/kv"
	"tcache/internal/lock"
)

// CommitUpdate commits one update transaction — the database's only
// kind. The caller ran its logic against snapshot reads (its cache, or
// lock-free ReadItem calls) and ships what it observed and what it
// writes in one call:
//
//  1. Every key is locked once, in key order, in its final mode:
//     exclusive if written, shared if only read. One global order and
//     no upgrades cannot deadlock (see package lock).
//  2. Under those locks each observed read is compared with the
//     committed version (and presence) of its key. The first mismatch
//     aborts with a ConflictError wrapping ErrConflict — the caller's
//     snapshot is stale and the transaction must be retried against
//     fresh reads. Blind writes (no reads) commit unconditionally.
//  3. The commit pipeline (commit, below) makes every write visible at
//     one new version.
//
// Repeated reads of a key are recorded once; a key written more than
// once stores its last value. The commit record, the merged dependency
// list, the log record and the invalidations keep request order; only
// the lock acquisition is sorted.
//
// The result carries the commit version and, per write (by request
// index), the dependency list stored with it — everything but the value
// of each committed item, which the writer already holds. The lists are
// the ones the store keeps, so they are read-only (see kv.CommitResult).
// A read-only transaction commits at the zero version.
func (d *DB) CommitUpdate(ctx context.Context, reads []kv.ObservedRead, writes []kv.KeyValue) (kv.CommitResult, error) {
	start := time.Now()
	d.metrics.TxnsStarted.Add(1)
	t := txnPool.Get().(*txn)
	defer func() { *t = txn{}; txnPool.Put(t) }() // pooled, it pins no key, value or list
	t.id = d.txnC.Add(1)
	t.keys, t.reads, t.writes = lockPlan(t.keyBuf[:0], reads, writes), t.readBuf[:0], t.writeBuf[:0]
	if d.closed.Load() {
		return kv.CommitResult{}, d.abort(t, ErrClosed)
	}
	// Fail writes on a standby before taking locks; commit re-checks
	// authoritatively under commitMu.
	if len(writes) > 0 && Role(d.role.Load()) != RolePrimary {
		return kv.CommitResult{}, d.abort(t, &NotPrimaryError{Leader: d.LeaderAddr()})
	}
	if err := d.lockKeys(ctx, t); err != nil {
		return kv.CommitResult{}, d.abort(t, err)
	}

	for i, r := range reads {
		item, found := d.store.GetShared(r.Key)
		if found != r.Found || (found && item.Version != r.Version) {
			d.metrics.TxnReads.Add(uint64(i + 1))
			d.metrics.Conflicts.Add(1)
			d.tel.UpdateConflict.ObserveSince(start)
			return kv.CommitResult{}, d.abort(t, &ConflictError{Key: r.Key, Current: item.Version, Found: found})
		}
		if k := t.key(r.Key); k.read < 0 {
			k.read = len(t.reads)
			t.reads = append(t.reads, readAccess{key: r.Key, item: item, found: found})
		}
	}
	d.metrics.TxnReads.Add(uint64(len(reads)))
	d.metrics.TxnWrites.Add(uint64(len(writes)))
	for _, w := range writes {
		if k := t.key(w.Key); k.write < 0 {
			k.write = len(t.writes)
			old, _ := d.store.GetShared(w.Key)
			t.writes = append(t.writes, writeAccess{key: w.Key, value: w.Value, old: old})
		} else {
			t.writes[k.write].value = w.Value
		}
	}

	version, items, err := d.commit(ctx, t)
	if err != nil {
		return kv.CommitResult{}, err
	}
	d.tel.UpdateCommit.ObserveSince(start)
	res := kv.CommitResult{Version: version, Deps: make([]kv.DepList, len(writes))}
	for i, w := range writes {
		res.Deps[i] = items[t.key(w.Key).write].Deps
	}
	return res, nil
}

// txn is one update transaction inside CommitUpdate: its keys, and the
// first occurrence of each key read and of each key written, in request
// order.
type txn struct {
	id     uint64    // CommitRecord.TxnID
	keys   []keyLock // one per key, in key order (see lockPlan)
	locked int       // keys[:locked] are held
	reads  []readAccess
	writes []writeAccess

	// Inline backing for the slices above and commit's scratch, so a
	// transaction of up to 8 reads and 8 writes allocates none of them.
	keyBuf    [16]keyLock
	readBuf   [8]readAccess
	writeBuf  [8]writeAccess
	accessBuf [16]kv.Access
	itemBuf   [8]kv.Item
}

// txnPool recycles transactions: their inline buffers are ≈ 1.8 KB.
var txnPool = sync.Pool{New: func() any { return new(txn) }}

type readAccess struct {
	key   kv.Key
	item  kv.Item // version+deps as observed (value omitted from records)
	found bool
}

type writeAccess struct {
	key   kv.Key
	value kv.Value
	old   kv.Item // committed item under the lock (version+deps)
}

// keyLock is one key of a transaction: the mode it is locked in and
// where it sits in the transaction's reads and writes (-1: absent).
// Looking a key up here is a binary search, so a transaction of n keys
// costs O(n log n), however many it repeats.
type keyLock struct {
	key         kv.Key
	mode        lock.Mode
	read, write int
}

// lockPlan lists each key the transaction touches once, in key order,
// with its mode, appended to plan: exclusive if written, shared if only read.
func lockPlan(plan []keyLock, reads []kv.ObservedRead, writes []kv.KeyValue) []keyLock {
	for _, w := range writes {
		plan = append(plan, keyLock{key: w.Key, mode: lock.Exclusive, read: -1, write: -1})
	}
	for _, r := range reads {
		plan = append(plan, keyLock{key: r.Key, mode: lock.Shared, read: -1, write: -1})
	}
	slices.SortFunc(plan, func(a, b keyLock) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(b.mode, a.mode))
	})
	// A key's first entry carries its strongest mode.
	return slices.CompactFunc(plan, func(a, b keyLock) bool { return a.key == b.key })
}

// key returns key's entry in t.keys, or nil if t does not touch it.
func (t *txn) key(key kv.Key) *keyLock {
	i, ok := slices.BinarySearchFunc(t.keys, key, func(k keyLock, key kv.Key) int { return cmp.Compare(k.key, key) })
	if !ok {
		return nil
	}
	return &t.keys[i]
}

// lockKeys takes every lock t needs before it reads anything, in key
// order.
func (d *DB) lockKeys(ctx context.Context, t *txn) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, k := range t.keys {
		if err := d.locks.Acquire(ctx, string(k.key), k.mode); err != nil {
			return fmt.Errorf("db: acquire %s on %q: %w", k.mode, k.key, err)
		}
		t.locked++
	}
	return nil
}

// unlock releases the locks t holds.
func (d *DB) unlock(t *txn) {
	for _, k := range t.keys[:t.locked] {
		d.locks.Release(string(k.key), k.mode)
	}
}

// abort ends t without committing anything: its locks are released and
// err is returned.
func (d *DB) abort(t *txn, err error) error {
	d.unlock(t)
	d.metrics.TxnsAborted.Add(1)
	return err
}

// mergeBound returns the bound for the transaction's full merged list:
// one above the largest per-object bound among the written keys (room
// for the self-entry removed per object), or unbounded if any is.
func (d *DB) mergeBound(t *txn) int {
	bound := d.cfg.DepBound
	if d.cfg.DepBoundFor != nil {
		bound = 0
		for _, w := range t.writes {
			b := d.boundFor(w.key)
			if b < 0 {
				return kv.Unbounded
			}
			if b > bound {
				bound = b
			}
		}
	}
	if bound > 0 {
		bound++
	}
	return bound
}

// commit runs the three-stage pipeline for a transaction that holds all
// its locks, returning the commit version and the item stored for each
// of t.writes:
//
//  1. Under commitMu: decide the commit version (strictly greater than
//     every version the transaction accessed, per §III-A), aggregate
//     the full dependency list, build every written item, and take a
//     commit-door ticket (ticket order = version order).
//  2. Outside all locks: append the commit record to the write-ahead
//     log. This is where concurrent committers overlap — group commit
//     coalesces their appends into shared writes and fsyncs.
//  3. Through the door, in ticket order: apply the writes, release
//     locks, and publish commit records and invalidations, so observers
//     see commits in exact version order.
//
// A failed append applies nothing: the transaction aborts, releasing its
// locks and its door ticket. Read-only transactions (no writes) commit
// trivially.
func (d *DB) commit(ctx context.Context, t *txn) (kv.Version, []kv.Item, error) {
	if len(t.writes) == 0 {
		// Nothing to apply; under the shared locks the reads are
		// trivially serializable at this point in time.
		d.unlock(t)
		d.metrics.TxnsCommitted.Add(1)
		return kv.Version{}, nil, nil
	}

	d.commitMu.Lock()

	// Standbys reject writes with a typed redirect: promotion flips the
	// role under commitMu, so this check is strictly ordered against it.
	if Role(d.role.Load()) != RolePrimary {
		leader := d.LeaderAddr()
		d.commitMu.Unlock()
		return kv.Version{}, nil, d.abort(t, &NotPrimaryError{Leader: leader})
	}

	// Decide the commit version: larger than every accessed version and
	// than every version this node has minted. The counter is raised at
	// mint time — not at apply — so a concurrent snapshot's saved counter
	// can never fall below a version that is about to become durable.
	maxSeen := kv.Version{Counter: d.versionC.Load(), Node: d.cfg.NodeID}
	for _, r := range t.reads {
		maxSeen = kv.Max(maxSeen, r.item.Version)
	}
	for _, w := range t.writes {
		maxSeen = kv.Max(maxSeen, w.old.Version)
	}
	vt := kv.Version{Counter: maxSeen.Counter + 1, Node: d.cfg.NodeID}
	d.versionC.Store(vt.Counter)

	// Aggregate the full dependency list (§III-A). Write-set entries use
	// the new version vt; read-set entries use the version observed.
	// Entries for never-written keys carry no information and are skipped.
	accesses := t.accessBuf[:0]
	for _, w := range t.writes {
		accesses = append(accesses, kv.Access{Key: w.key, Version: vt, Deps: w.old.Deps})
	}
	for _, r := range t.reads {
		if !r.found || t.key(r.key).write >= 0 {
			continue
		}
		accesses = append(accesses, kv.Access{Key: r.key, Version: r.item.Version, Deps: r.item.Deps})
	}
	merge := kv.MergeDeps
	if d.cfg.DepMerge == MergePositional {
		merge = kv.MergeDepsPositional
	}
	full := merge(d.mergeBound(t), accesses)

	items := t.itemBuf[:0] // built once: the store keeps them as they are
	for _, w := range t.writes {
		items = append(items, kv.Item{
			Value:   w.value.Clone(),
			Version: vt,
			Deps:    d.composeDeps(w.key, full, t, vt),
		})
	}
	ticket := d.door.enter()
	d.commitMu.Unlock()

	// Write-ahead, outside all locks: the decision is durable before it
	// is applied, and concurrent committers share group-commit batches.
	walPos, logErr := d.logCommit(vt, t.writes, items)

	d.door.wait(ticket)
	if logErr != nil {
		err := d.abort(t, logErr)
		d.door.exit()
		return kv.Version{}, nil, err
	}

	// Apply, in version order behind the door.
	for i, w := range t.writes {
		d.store.keep(w.key, items[i])
	}
	d.unlock(t)
	d.metrics.TxnsCommitted.Add(1)

	// Report and invalidate, still holding the door ticket so observers
	// see commits in version order; actual delivery to caches is
	// asynchronous (the sink schedules it).
	rec := CommitRecord{TxnID: t.id, Version: vt, Reads: make([]ReadRecord, len(t.reads))}
	for i, r := range t.reads {
		rec.Reads[i] = ReadRecord{Key: r.key, Version: r.item.Version}
	}
	writtenKeys := make([]kv.Key, len(t.writes))
	for i, w := range t.writes {
		writtenKeys[i] = w.key
	}
	rec.Writes = writtenKeys
	d.runCommitHooks(rec)
	d.emitInvalidations(writtenKeys, vt)
	d.door.exit()

	d.noteSegment(walPos)

	// Synchronous replication: do not acknowledge until enough standbys
	// hold the record. The commit has already applied locally either
	// way; an error here means its replication state is unknown, and the
	// caller must treat the outcome as unresolved rather than aborted.
	if err := d.waitReplicated(ctx, walPos); err != nil {
		return kv.Version{}, nil, fmt.Errorf("db: commit awaiting %d sync replica(s): %w", d.cfg.ReplMinSync, err)
	}
	return vt, items, nil
}

// accessVersion is the version key has in the commit at vt, if the
// transaction touched it: vt for a written key, the observed version for
// a key only read (and found). It is what the commit's accesses record.
func (t *txn) accessVersion(key kv.Key, vt kv.Version) (kv.Version, bool) {
	switch k := t.key(key); {
	case k == nil:
		return kv.Version{}, false
	case k.write >= 0:
		return vt, true
	default:
		r := t.reads[k.read]
		return r.item.Version, r.found
	}
}
