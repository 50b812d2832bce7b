package db

import (
	"context"
	"fmt"

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

// ValidatedUpdate is CommitUpdate for callers that want only the commit
// version.
func (d *DB) ValidatedUpdate(ctx context.Context, reads []kv.ObservedRead, writes []kv.KeyValue) (kv.Version, error) {
	res, err := d.CommitUpdate(ctx, reads, writes)
	return res.Version, err
}
