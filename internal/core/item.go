package core

import (
	"context"
	"errors"
	"time"

	"tcache/internal/kv"
)

// lookupPass is the non-transactional read: collect what the cache can
// serve under floor, then fetch and insert the rest. A backend failure
// fails the whole call. miss is empty scratch for the miss list.
func (c *Cache) lookupPass(ctx context.Context, keys []kv.Key, floor kv.Version, out []kv.Lookup, slots []keySlot, miss []recRow) error {
	if c.closed.Load() {
		return ErrClosed
	}
	missing := keyTable{rows: miss}
	if c.collect(keys, floor, out, slots, &missing, true); len(missing.rows) > 0 {
		// Like readPass, look at ctx only when there is a fetch to bound.
		if err := ctx.Err(); err != nil {
			return err
		}
		return c.fill(ctx, keys, floor, out, slots, missing.rows, true)
	}
	return nil
}

// lookupOne is the one-key lookupPass behind Get, GetItem and RETRY's
// refetch; a key the backend does not have is ErrNotFound.
func (c *Cache) lookupOne(ctx context.Context, key kv.Key, floor kv.Version) (kv.Item, error) {
	var (
		keys  = [1]kv.Key{key}
		out   [1]kv.Lookup
		slots [1]keySlot
		miss  [1]recRow
	)
	if err := c.lookupPass(ctx, keys[:], floor, out[:], slots[:], miss[:0]); err != nil {
		return kv.Item{}, err
	}
	if !out[0].Found {
		return kv.Item{}, ErrNotFound
	}
	return out[0].Item, nil
}

// GetItem is the item-granular, non-transactional read that lets a Cache
// act as the Backend of another cache — the mid-tier role of a clustered
// edge deployment. It serves the cached item (value, commit version, and
// dependency list) on a hit and fills from this cache's own backend on a
// miss, exactly like Get, but keeps the metadata the downstream cache
// needs for its §III-B checks.
//
// floor is the caller's read floor: a cached entry whose version is
// older than floor is refetched from the backend instead of served, so a
// client that already observed a newer version of this key's range (a
// cluster router failing over from a dead node) is never handed data
// staler than its own history. The refetched item is served whatever its
// version: the backend chain bottoms out at the database, which is
// authoritative, and a floor inflated by a neighbouring key's commit
// must not turn into an error. The zero floor disables the check.
//
// The returned Item shares the cache's memory (copy-on-write; see Read)
// and must be treated as read-only.
func (c *Cache) GetItem(ctx context.Context, key kv.Key, floor kv.Version) (kv.Item, bool, error) {
	item, err := c.lookupOne(ctx, key, floor)
	if errors.Is(err, ErrNotFound) {
		return kv.Item{}, false, nil
	}
	return item, err == nil, err
}

// GetItems is the batch form of GetItem: one Lookup per requested key,
// positionally. Keys the cache can serve (version ≥ floor, not expired)
// come from the cache; all remaining keys are fetched from the backend
// in a single batch request when the backend supports batching, and
// inserted so later reads hit. A backend failure fails the whole call.
// This is the batch path cluster routers drive (OpGetBatch), so it feeds
// the same warm/cold/multi histograms the transactional reads do.
//
// Like GetItem, returned Items share the cache's memory and must be
// treated as read-only.
func (c *Cache) GetItems(ctx context.Context, keys []kv.Key, floor kv.Version) ([]kv.Lookup, error) {
	var start time.Time
	if c.tel != nil {
		start = time.Now()
	}
	var slotBuf [batchInline]keySlot
	var missBuf [batchInline]recRow
	slots := slotBuf[:]
	if len(keys) > batchInline {
		slots = make([]keySlot, len(keys))
	}
	out := make([]kv.Lookup, len(keys))
	if err := c.lookupPass(ctx, keys, floor, out, slots[:len(keys)], missBuf[:0]); err != nil {
		return nil, err
	}
	if c.tel != nil {
		// No transaction to pick the stripe: the first key's hash does
		// (slots is never empty; an empty batch finds a zero there).
		c.tel.ReadMulti.Stripe(slots[0].hash).ObserveSince(start)
	}
	return out, nil
}
