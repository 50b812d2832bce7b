package core

import (
	"context"
	"errors"
	"time"

	"tcache/internal/kv"
)

// violation is an inconsistency found by the §III-B checks.
type violation struct {
	equation int    // 1 or 2, the paper's numbering
	staleKey kv.Key // the too-old object
	// staleBelow is the version the stale object must reach; the cached
	// copy is evicted only while older than this (EVICT/RETRY paths).
	staleBelow kv.Version
}

// Read is the paper's read interface, read(txnID, key, lastOp) (§III-B),
// for an in-process caller whose transaction spans calls by its TxnID:
// Begin, Txn.Read and Finish behind one ID. Between calls the open Txn
// is parked under txnID; a call takes it out for its own length, so calls
// of one ID must not overlap, as on a Txn. lastOp ends the transaction
// committed. An error ends it aborted, so no parked transaction outlives
// a failed read; a commit needs lastOp and no error.
func (c *Cache) Read(ctx context.Context, txnID kv.TxnID, key kv.Key, lastOp bool) (kv.Value, error) {
	c.parkMu.Lock()
	t := c.parked[txnID]
	delete(c.parked, txnID)
	c.parkMu.Unlock()
	if t == nil {
		t = c.Begin(txnID, time.Time{})
	}
	val, err := t.Read(ctx, key)
	switch {
	case err != nil:
		t.Finish(false)
		return nil, err
	case lastOp || !c.park(t):
		if err := t.Finish(lastOp); err != nil {
			return nil, err
		}
	}
	return val, nil
}

// park holds t under its ID until the next Read of that ID takes it out.
// Once the cache is closed it refuses, leaving t to its caller: Close
// ends only the transactions parked before it.
func (c *Cache) park(t *Txn) bool {
	c.parkMu.Lock()
	defer c.parkMu.Unlock()
	if c.closed.Load() {
		return false
	}
	if c.parked == nil {
		c.parked = make(map[kv.TxnID]*Txn)
	}
	c.parked[t.id] = t
	return true
}

// batchInline is the batch size whose per-key scratch fits the stack
// (the paper's transactions read ~5 keys).
const batchInline = 8

// readPass is the transactional read of keys within t: collect what the
// cache can serve (one lock per touched shard), fetch and insert the rest
// (one backend batch), then validate in key order against t's record —
// which t's holder owns, so under no lock — writing each value it serves
// to vals. A key that fails its check goes to handleViolation (RETRY's
// refetch, or the abort), and the pass resumes behind it. out and slots
// are per-key scratch, len(keys) each.
//
// ctx is consulted only when there is something to fetch: a pass that
// collect served whole cannot block, and the transaction's owner checks
// its ctx once before committing (tcache.Cache.ReadTxn).
func (c *Cache) readPass(ctx context.Context, t *Txn, keys []kv.Key, out []kv.Lookup, slots []keySlot, vals []kv.Value) error {
	if err := t.check(); err != nil {
		return err
	}
	var fetchErr error
	missing := keyTable{rows: t.missBuf[:0]}
	if c.collect(keys, kv.Version{}, out, slots, &missing, false); len(missing.rows) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if fetchErr = c.fill(ctx, keys, kv.Version{}, out, slots, missing.rows, false); errors.Is(fetchErr, ErrClosed) {
			return t.closedOut()
		}
	}
	t.begin()
	var (
		reads, hits uint64
		err         error
	)
	for i := 0; i < len(keys) && err == nil; i++ {
		reads++
		if slots[i].state == slotHit {
			hits++
		}
		if !out[i].Found {
			// Backend miss or fetch failure (including ctx cancellation):
			// the read fails but the transaction survives.
			err = ErrNotFound
			if slots[i].state != slotMiss {
				err = fetchErr
			}
			break
		}
		v, bad := t.rec.admit(keys[i], out[i].Item)
		if !bad {
			// Copy-on-write sharing: cached values are immutable (updates
			// replace the whole item, never mutate the slice), so the
			// caller gets the cached slice, not a copy per read.
			vals[i] = out[i].Item.Value
			continue
		}
		served, verr := c.handleViolation(ctx, t, keys[i], out[i].Item, v)
		if verr != nil {
			err = verr
			break
		}
		vals[i] = served.Value
		if out[i].Item.Version.Less(served.Version) {
			// RETRY refetched the key: a later duplicate in this batch
			// must see what the refetch installed, as a later Read would.
			for j := i + 1; j < len(keys); j++ {
				if keys[j] == keys[i] {
					out[j].Item = served
				}
			}
		}
	}
	t.count(reads, hits)
	return err
}

// Get is the plain, non-transactional read API (a consistency-unaware
// cache access). It shares the store, TTL handling, and miss path with
// Read. ctx bounds the backend fetch on a miss.
func (c *Cache) Get(ctx context.Context, key kv.Key) (kv.Value, error) {
	item, err := c.lookupOne(ctx, key, kv.Version{})
	return item.Value, err // shared read-only; see readPass
}

// admit evaluates the paper's two consistency checks for reading item —
// key's — under rec and, when both pass, folds the read into the record.
// A violation leaves the record untouched: the key and every dependency
// are checked before anything is written.
//
// Equation 2: the current read is older than the version some previous
// read (or a previous read's dependency list) expects for this key.
//
// Equation 1: the current read's dependency list expects a version of some
// previously read object newer than the version actually returned earlier.
// A repeated read of the same key returning a *newer* version than before
// is also reported as an equation-1 violation on the key itself: the
// earlier read is stale evidence, exactly as if the current read carried a
// self-dependency.
//
// Each of the 1 + len(item.Deps) keys is looked up once: the checks leave
// the rows they found in rec.at, and the writes go back to them.
func (rec *txnRecord) admit(key kv.Key, item kv.Item) (violation, bool) {
	at := append(rec.at[:0], rec.find(0, key))
	if i := at[0]; i >= 0 {
		row := &rec.rows[i]
		if item.Version.Less(row.expected) {
			return violation{equation: 2, staleKey: key, staleBelow: row.expected}, true
		}
		if row.seq > 0 && row.read.Less(item.Version) {
			return violation{equation: 1, staleKey: key, staleBelow: item.Version}, true
		}
	}
	for _, dep := range item.Deps {
		i := rec.find(0, dep.Key.Value())
		if i >= 0 && rec.rows[i].seq > 0 && rec.rows[i].read.Less(dep.Version) {
			return violation{equation: 1, staleKey: dep.Key.Value(), staleBelow: dep.Version}, true
		}
		at = append(at, i)
	}
	rec.at = at

	// A key the table did not hold gets a row — unless an earlier write of
	// this same read just added one (a dependency list naming a key twice,
	// or the key being read): those rows start at fresh.
	fresh := len(rec.rows)
	i := at[0]
	if i < 0 {
		i = rec.add(key)
	}
	row := &rec.rows[i]
	if row.seq == 0 {
		rec.nread++
		row.seq, row.read = rec.nread, item.Version
	}
	if row.expected.Less(item.Version) {
		row.expected = item.Version
	}
	for j, dep := range item.Deps {
		i := at[1+j]
		if i < 0 {
			if i = rec.find(fresh, dep.Key.Value()); i < 0 {
				i = rec.add(dep.Key.Value())
			}
		}
		if row := &rec.rows[i]; row.expected.Less(dep.Version) {
			row.expected = dep.Version
		}
	}
	return violation{}, false
}

// handleViolation applies the configured strategy to v, the violation
// reading item as key found in t's record. When StrategyRetry resolves
// the read it returns the item it served; otherwise it ends t aborted —
// keeping the error as t's, for every later read — and returns an
// *InconsistencyError. It holds no lock beyond the shard of an entry it
// evicts.
//
// An equation-2 violator is the key being read itself, so RETRY evicts it
// before refetching. An equation-1 violator may hash to any shard; its
// eviction is version-conditional, so it cannot remove a copy newer than
// the one that violated.
func (c *Cache) handleViolation(ctx context.Context, t *Txn, key kv.Key, item kv.Item, v violation) (kv.Item, error) {
	c.metrics.Detected.Add(1)
	if v.equation == 1 {
		c.metrics.DetectedEq1.Add(1)
	} else {
		c.metrics.DetectedEq2.Add(1)
	}

	if c.cfg.Strategy == StrategyRetry && v.equation == 2 {
		// The violator is the object being read: treat the access as a
		// miss and serve it from the database (§III-B, RETRY) — a second,
		// non-transactional read of key, counted as one.
		c.metrics.Retries.Add(1)
		c.evictStale(v)
		fresh, err := c.lookupOne(ctx, key, kv.Version{})
		switch {
		case errors.Is(err, ErrClosed):
			return kv.Item{}, t.closedOut()
		case err != nil && !errors.Is(err, ErrNotFound):
			// The re-fetch failed outright (ctx cancelled, backend dead):
			// propagate the failure instead of converting it into an
			// abort; the transaction survives for its holder.
			return kv.Item{}, err
		case err == nil:
			v2, bad := t.rec.admit(key, fresh)
			if !bad {
				c.metrics.RetriesResolved.Add(1)
				return fresh, nil
			}
			// The fresh copy exposes a violation among *previous* reads;
			// fall through to evict-and-abort with the new evidence.
			v, item = v2, fresh
		}
	}

	// The violating (too-old) object is likely a repeat offender: drop it
	// so future transactions re-fetch (§III-B, EVICT).
	if c.cfg.Strategy == StrategyEvict || c.cfg.Strategy == StrategyRetry {
		c.evictStale(v)
	}
	ie := &InconsistencyError{TxnID: t.id, Key: key, StaleKey: v.staleKey, Equation: v.equation}
	t.err = ie
	t.end(&c.metrics.TxnsAborted, false, &ReadVersion{Key: key, Version: item.Version})
	return kv.Item{}, ie
}

// evictStale removes the violating object's cached copy if it is still
// older than the version the violation demands.
func (c *Cache) evictStale(v violation) {
	sh := c.shardFor(v.staleKey)
	sh.mu.Lock()
	if e, ok := sh.entries[v.staleKey]; ok && e.item.Version.Less(v.staleBelow) {
		sh.removeEntry(e)
		c.metrics.Evictions.Add(1)
	}
	sh.mu.Unlock()
}
