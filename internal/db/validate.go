package db

import (
	"context"
	"fmt"
	"time"

	"tcache/internal/kv"
)

// ConflictError is the ErrConflict flavor ValidatedUpdate raises when an
// observed read no longer matches the committed state. It names the key
// and the committed version that superseded the observation, so an
// optimistic caller (an edge cache, a cluster router) can invalidate its
// stale copy — and floor its refetch — before retrying, instead of
// re-reading the same stale version forever.
type ConflictError struct {
	// Key is the first observed read that failed validation.
	Key kv.Key
	// Current is the version committed for Key at validation time (zero
	// when the key does not exist).
	Current kv.Version
	// Found reports whether Key currently exists.
	Found bool
}

func (e *ConflictError) Error() string {
	if !e.Found {
		return fmt.Sprintf("db: validation conflict on %q: key no longer exists", e.Key)
	}
	return fmt.Sprintf("db: validation conflict on %q: committed version is now %s", e.Key, e.Current)
}

// Unwrap makes errors.Is(err, ErrConflict) hold.
func (e *ConflictError) Unwrap() error { return ErrConflict }

// CommitUpdate commits one optimistic update transaction: every
// observed read is re-read under a shared lock and compared against the
// version (and presence) the client saw; if all still match, the write
// set is applied through the ordinary Txn.Commit, atomically and
// serializably. The first mismatch aborts with a ConflictError wrapping
// ErrConflict — the caller's optimistic snapshot is stale and the
// transaction must be retried against fresh reads.
//
// This is the server half of the one-round-trip edge write path: the
// client runs its closure against snapshot reads (its cache, or
// lock-free ReadItem calls), buffers the writes, and ships both sets
// here for validation-and-commit in a single exchange. Blind writes
// (an empty read set) commit unconditionally.
//
// The result carries the commit version and, per write, the dependency
// list stored with it — everything but the value of each committed item,
// which the writer already holds. The lists are the transaction's own:
// the store keeps copies.
func (d *DB) CommitUpdate(ctx context.Context, reads []kv.ObservedRead, writes []kv.KeyValue) (kv.CommitResult, error) {
	start := time.Now()
	txn := d.BeginCtx(ctx)
	for _, r := range reads {
		item, found, err := txn.Read(r.Key)
		if err != nil {
			// Lock conflicts and cancellations already rolled the
			// transaction back.
			return kv.CommitResult{}, err
		}
		if found != r.Found || (found && item.Version != r.Version) {
			d.metrics.Conflicts.Add(1)
			d.metrics.TxnsAborted.Add(1)
			txn.rollback()
			d.tel.UpdateConflict.ObserveSince(start)
			return kv.CommitResult{}, &ConflictError{Key: r.Key, Current: item.Version, Found: found}
		}
	}
	for _, w := range writes {
		if err := txn.Write(w.Key, w.Value); err != nil {
			return kv.CommitResult{}, err
		}
	}
	txn.deps = make([]kv.DepList, len(txn.writes))
	version, err := txn.Commit()
	if err != nil {
		return kv.CommitResult{}, err
	}
	d.tel.UpdateCommit.ObserveSince(start)
	res := kv.CommitResult{Version: version, Deps: txn.deps}
	if len(txn.writes) != len(writes) {
		// A key written more than once: the transaction holds it once.
		res.Deps = make([]kv.DepList, len(writes))
		for i, w := range writes {
			res.Deps[i] = txn.deps[txn.wrIx[w.Key]]
		}
	}
	return res, nil
}

// ValidatedUpdate is CommitUpdate for callers that want only the commit
// version.
func (d *DB) ValidatedUpdate(ctx context.Context, reads []kv.ObservedRead, writes []kv.KeyValue) (kv.Version, error) {
	res, err := d.CommitUpdate(ctx, reads, writes)
	return res.Version, err
}
