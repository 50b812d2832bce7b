package db

import (
	"context"
	"errors"
	"fmt"

	"tcache/internal/kv"
	"tcache/internal/lock"
)

// Txn is an update transaction. Reads take shared locks, writes take
// exclusive locks (strict two-phase locking), and Commit makes every
// write visible at one new version.
//
// The transaction carries the context it was begun with (BeginCtx):
// cancellation aborts blocked lock waits, rolls the transaction back, and
// surfaces ctx.Err() from the in-flight operation.
//
// A Txn is not safe for concurrent use by multiple goroutines.
type Txn struct {
	db   *DB
	ctx  context.Context
	id   uint64
	done bool

	reads  []readAccess
	readIx map[kv.Key]int
	writes []writeAccess
	wrIx   map[kv.Key]int

	// deps, when non-nil (CommitUpdate sets it), receives the dependency
	// list Commit stores with each write: deps[i] belongs to writes[i].
	// The interactive Begin/Commit path leaves it nil and pays one nil
	// check per write.
	deps []kv.DepList
}

type readAccess struct {
	key   kv.Key
	item  kv.Item // version+deps as observed (value omitted from records)
	found bool
}

type writeAccess struct {
	key   kv.Key
	value kv.Value
	old   kv.Item // committed item at first write lock (version+deps)
}

// Begin starts an update transaction that cannot be cancelled
// (equivalent to BeginCtx with context.Background()).
func (d *DB) Begin() *Txn {
	//lint:ignore ctxdiscipline Begin is the documented no-cancellation variant; callers wanting cancellation use BeginCtx
	return d.BeginCtx(context.Background())
}

// BeginCtx starts an update transaction bound to ctx: every subsequent
// Read/Write/Commit checks the context first, and lock waits abort with
// ctx.Err() when it is cancelled — releasing the transaction's locks and
// unblocking queued waiters.
func (d *DB) BeginCtx(ctx context.Context) *Txn {
	if ctx == nil {
		//lint:ignore ctxdiscipline nil means the caller explicitly opted out of cancellation
		ctx = context.Background()
	}
	d.metrics.TxnsStarted.Add(1)
	return &Txn{
		db:     d,
		ctx:    ctx,
		id:     d.txnC.Add(1),
		readIx: make(map[kv.Key]int),
		wrIx:   make(map[kv.Key]int),
	}
}

// ID returns the transaction's identifier (used as its lock owner).
func (t *Txn) ID() uint64 { return t.id }

// Read returns the current committed item for key (or the transaction's
// own buffered write). The boolean reports whether the key exists. On
// ErrConflict the transaction has already been aborted.
func (t *Txn) Read(key kv.Key) (kv.Item, bool, error) {
	if t.done {
		return kv.Item{}, false, ErrTxnDone
	}
	if err := t.ctx.Err(); err != nil {
		t.rollback()
		return kv.Item{}, false, err
	}
	if t.db.closed.Load() {
		t.rollback()
		return kv.Item{}, false, ErrClosed
	}
	// Read-your-writes: serve from the write buffer.
	if i, ok := t.wrIx[key]; ok {
		w := t.writes[i]
		return kv.Item{Value: w.value.Clone(), Version: w.old.Version, Deps: w.old.Deps.Clone()}, true, nil
	}
	if err := t.acquire(key, lock.Shared); err != nil {
		return kv.Item{}, false, err
	}
	t.db.metrics.TxnReads.Add(1)
	item, found := t.db.store.Get(key)
	// A repeat read under 2PL returns the same version; keep the first record.
	if _, ok := t.readIx[key]; !ok {
		t.readIx[key] = len(t.reads)
		t.reads = append(t.reads, readAccess{key: key, item: item, found: found})
	}
	return item, found, nil
}

// Write buffers a new value for key. The exclusive lock is taken
// immediately; the value becomes visible at Commit.
func (t *Txn) Write(key kv.Key, value kv.Value) error {
	if t.done {
		return ErrTxnDone
	}
	if err := t.ctx.Err(); err != nil {
		t.rollback()
		return err
	}
	if t.db.closed.Load() {
		t.rollback()
		return ErrClosed
	}
	// Fail writes on a standby before taking locks; Commit re-checks
	// authoritatively under commitMu.
	if Role(t.db.role.Load()) != RolePrimary {
		t.rollback()
		return &NotPrimaryError{Leader: t.db.LeaderAddr()}
	}
	if err := t.acquire(key, lock.Exclusive); err != nil {
		return err
	}
	t.db.metrics.TxnWrites.Add(1)
	if i, ok := t.wrIx[key]; ok {
		t.writes[i].value = value.Clone()
		return nil
	}
	old, _ := t.db.store.Get(key)
	t.wrIx[key] = len(t.writes)
	t.writes = append(t.writes, writeAccess{key: key, value: value.Clone(), old: old})
	return nil
}

// acquire takes a lock, translating concurrency-control losses into
// ErrConflict and rolling the transaction back so the caller can retry.
// A context cancellation is NOT a conflict: it propagates as ctx.Err() so
// callers stop retrying.
func (t *Txn) acquire(key kv.Key, mode lock.Mode) error {
	err := t.db.locks.Acquire(t.ctx, lock.Owner(t.id), string(key), mode)
	switch {
	case err == nil:
		return nil
	case errorsIsAny(err, context.Canceled, context.DeadlineExceeded):
		t.rollback()
		return err
	case errors.Is(err, lock.ErrDeadlock):
		t.db.metrics.Conflicts.Add(1)
		t.rollback()
		return fmt.Errorf("%w: %s on %q: %s", ErrConflict, mode, key, err)
	default:
		t.rollback()
		return fmt.Errorf("db: acquire %s on %q: %w", mode, key, err)
	}
}

// Abort rolls the transaction back. Aborting a finished transaction
// returns ErrTxnDone.
func (t *Txn) Abort() error {
	if t.done {
		return ErrTxnDone
	}
	t.db.metrics.TxnsAborted.Add(1)
	t.rollback()
	return nil
}

func (t *Txn) rollback() {
	if t.done {
		return
	}
	t.done = true
	t.db.locks.ReleaseAll(lock.Owner(t.id))
}

// mergeBound returns the bound for the transaction's full merged list:
// one above the largest per-object bound among the written keys (room
// for the self-entry removed per object), or unbounded if any is.
func (t *Txn) mergeBound() int {
	d := t.db
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

// Commit runs the three-stage pipeline:
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
// locks and its door ticket. Read-only update transactions (no writes)
// commit trivially.
func (t *Txn) Commit() (kv.Version, error) {
	if t.done {
		return kv.Version{}, ErrTxnDone
	}
	if err := t.ctx.Err(); err != nil {
		t.rollback()
		return kv.Version{}, err
	}
	if t.db.closed.Load() {
		t.rollback()
		return kv.Version{}, ErrClosed
	}
	d := t.db

	if len(t.writes) == 0 {
		// Nothing to apply; under 2PL the reads are trivially serializable
		// at this point in time.
		t.done = true
		d.locks.ReleaseAll(lock.Owner(t.id))
		d.metrics.TxnsCommitted.Add(1)
		return kv.Version{}, nil
	}

	d.commitMu.Lock()

	// Standbys reject writes with a typed redirect: promotion flips the
	// role under commitMu, so this check is strictly ordered against it.
	if Role(d.role.Load()) != RolePrimary {
		leader := d.LeaderAddr()
		d.commitMu.Unlock()
		d.metrics.TxnsAborted.Add(1)
		t.done = true
		d.locks.ReleaseAll(lock.Owner(t.id))
		return kv.Version{}, &NotPrimaryError{Leader: leader}
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
	accesses := make([]kv.Access, 0, len(t.writes)+len(t.reads))
	for _, w := range t.writes {
		accesses = append(accesses, kv.Access{Key: w.key, Version: vt, Deps: w.old.Deps})
	}
	for _, r := range t.reads {
		if _, alsoWritten := t.wrIx[r.key]; alsoWritten || !r.found {
			continue
		}
		accesses = append(accesses, kv.Access{Key: r.key, Version: r.item.Version, Deps: r.item.Deps})
	}
	mergeBound := t.mergeBound()
	merge := kv.MergeDeps
	if d.cfg.DepMerge == MergePositional {
		merge = kv.MergeDepsPositional
	}
	full := merge(mergeBound, accesses)

	items := make([]kv.Item, len(t.writes))
	for i, w := range t.writes {
		items[i] = kv.Item{
			Value:   w.value,
			Version: vt,
			Deps:    d.composeDeps(w.key, full, t, vt),
		}
		if t.deps != nil {
			t.deps[i] = items[i].Deps
		}
	}
	ticket := d.door.enter()
	d.commitMu.Unlock()

	// Write-ahead, outside all locks: the decision is durable before it
	// is applied, and concurrent committers share group-commit batches.
	walPos, logErr := d.logCommit(vt, t.writes, items)

	d.door.wait(ticket)
	if logErr != nil {
		d.metrics.TxnsAborted.Add(1)
		t.done = true
		d.locks.ReleaseAll(lock.Owner(t.id))
		d.door.exit()
		return kv.Version{}, logErr
	}

	// Apply, in version order behind the door.
	for i, w := range t.writes {
		d.store.Put(w.key, items[i])
	}
	t.done = true
	d.locks.ReleaseAll(lock.Owner(t.id))
	d.metrics.TxnsCommitted.Add(1)

	// Report and invalidate, still holding the door ticket so observers
	// see commits in version order; actual delivery to caches is
	// asynchronous (the sink schedules it).
	rec := CommitRecord{TxnID: t.id, Version: vt}
	for _, r := range t.reads {
		rec.Reads = append(rec.Reads, ReadRecord{Key: r.key, Version: r.item.Version})
	}
	writtenKeys := make([]kv.Key, len(t.writes))
	for i, w := range t.writes {
		writtenKeys[i] = w.key
	}
	rec.Writes = writtenKeys
	d.runCommitHooks(rec)
	d.emitInvalidations(writtenKeys, vt)
	d.door.exit()

	d.noteCommitForSnapshot()

	// Synchronous replication: do not acknowledge until enough standbys
	// hold the record. The commit has already applied locally either
	// way; an error here means its replication state is unknown, and the
	// caller must treat the outcome as unresolved rather than aborted.
	if err := d.waitReplicated(t.ctx, walPos); err != nil {
		return kv.Version{}, fmt.Errorf("db: commit awaiting %d sync replica(s): %w", d.cfg.ReplMinSync, err)
	}
	return vt, nil
}

// accessVersion is the version key has in the commit at vt, if the
// transaction touched it: vt for a written key, the observed version for
// a key only read (and found). It is what the commit's accesses record.
func (t *Txn) accessVersion(key kv.Key, vt kv.Version) (kv.Version, bool) {
	if _, ok := t.wrIx[key]; ok {
		return vt, true
	}
	if i, ok := t.readIx[key]; ok && t.reads[i].found {
		return t.reads[i].item.Version, true
	}
	return kv.Version{}, false
}

func errorsIsAny(err error, targets ...error) bool {
	for _, t := range targets {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}
