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

// Read is the transactional read interface of §III-B:
//
//	read(ctx, txnID, key, lastOp)
//
// It returns the cached (or fetched) value for key, validating it against
// every previous read of the same transaction. The returned value is
// shared with the cache (copy-on-write: updates replace whole items, so
// a served slice is never mutated) and must be treated as read-only;
// callers that need to modify it must copy it first (kv.Value.Clone). If an inconsistency is
// detected the transaction is aborted and an error wrapping ErrTxnAborted
// is returned (for StrategyRetry, only when the read-through could not
// resolve the violation). lastOp lets the cache garbage-collect the
// transaction record; the transaction is then reported as committed.
//
// ctx bounds the backend fetch on a miss; a cancellation surfaces as
// ctx.Err() and leaves the transaction record intact (the caller decides
// whether to Abort it — Cache.ReadTxn in the public package does).
//
// Read is the one-key case of ReadMulti: both are readPass.
//
//tcache:hotpath
func (c *Cache) Read(ctx context.Context, txnID kv.TxnID, key kv.Key, lastOp bool) (kv.Value, error) {
	var (
		keys  = [1]kv.Key{key}
		out   [1]kv.Lookup
		slots [1]keySlot
		vals  [1]kv.Value
	)
	if err := c.readPass(ctx, txnID, keys[:], out[:], slots[:], vals[:], lastOp); err != nil {
		return nil, err
	}
	return vals[0], nil
}

// ReadMulti performs the transactional reads of keys, in order, within
// txnID — the values, errors, completions, evictions and counters of
// calling Read once per key, with the final read carrying lastOp — in
// one pass: every entry shard the keys touch is locked once, all keys
// the cache cannot serve are fetched from the backend in ONE batch
// request (BatchBackend), and the transaction's stripe is locked once to
// validate the whole batch. A remote transactional read of N cold keys
// costs one round trip instead of N; a warm one costs (shards touched +
// 1) lock acquisitions instead of 3N.
//
// Validation is unchanged: every key still passes the §III-B checks
// against the transaction record one at a time, in key order, and the
// configured strategy applies to any detected inconsistency. The first
// error stops the batch and is returned; keys behind it were looked up
// (and filled) but are neither validated nor counted as reads.
func (c *Cache) ReadMulti(ctx context.Context, txnID kv.TxnID, keys []kv.Key, lastOp bool) ([]kv.Value, error) {
	if len(keys) == 0 {
		if c.closed.Load() {
			return nil, ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// An empty batch still honors lastOp: the transaction completes
		// instead of leaking its record.
		if lastOp {
			c.Commit(txnID)
		}
		return nil, nil
	}
	var start time.Time
	if c.tel != nil {
		start = time.Now()
	}
	// The scratch of a typical batch lives on the stack; the values are
	// the caller's to keep.
	var outBuf [batchInline]kv.Lookup
	var slotBuf [batchInline]keySlot
	out, slots := outBuf[:], slotBuf[:]
	if len(keys) > batchInline {
		out, slots = make([]kv.Lookup, len(keys)), make([]keySlot, len(keys))
	}
	vals := make([]kv.Value, len(keys))
	if err := c.readPass(ctx, txnID, keys, out[:len(keys)], slots[:len(keys)], vals, lastOp); err != nil {
		return nil, err
	}
	if c.tel != nil {
		c.tel.ReadMulti.Stripe(uint64(txnID)).ObserveSince(start)
	}
	return vals, nil
}

// batchInline is the batch size whose per-key scratch fits the stack
// (the paper's transactions read ~5 keys).
const batchInline = 8

// readPass is the transactional read: collect what the cache can serve
// (one lock per touched shard), fetch and insert the rest (one backend
// batch), then validate in key order under the transaction's stripe
// (one lock), recording each read, writing its value to vals and
// finishing the transaction on lastOp. No two locks are ever held
// together here; a key that fails its check drops into readLocked, which
// takes the shard and the stripe the strategy code needs, and the pass
// resumes behind it. out and slots are per-key scratch, len(keys) each.
//
// ctx is consulted only when there is something to fetch: a pass that
// collect served whole cannot block, and the transaction's owner checks
// its ctx once before committing (tcache.Cache.ReadTxn).
//
//tcache:hotpath
func (c *Cache) readPass(ctx context.Context, txnID kv.TxnID, keys []kv.Key, out []kv.Lookup, slots []keySlot, vals []kv.Value, lastOp bool) error {
	if c.closed.Load() {
		return ErrClosed
	}
	st := c.stripeFor(txnID)
	var (
		rec      *txnRecord
		fetchErr error
	)
	var missing keyTable
	if c.collect(keys, kv.Version{}, out, slots, &missing, false); len(missing.rows) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if c.cfg.TxnGC > 0 {
			// Resolve the record and stamp lastUsed before the fetch, so
			// the GC sweeper never collects a record whose owner is
			// stalled in the backend: the fresh stamp protects it for a
			// full TxnGC window. A warm pass cannot stall and skips this.
			st.mu.Lock()
			var err error
			rec, err = c.txnLocked(st, txnID, nil)
			st.mu.Unlock()
			if err != nil {
				return err
			}
		}
		if fetchErr = c.fill(ctx, keys, kv.Version{}, out, slots, missing.rows, false); errors.Is(fetchErr, ErrClosed) {
			return ErrClosed
		}
	}
	for i := 0; ; {
		st.mu.Lock()
		var err error
		if rec, err = c.txnLocked(st, txnID, rec); err != nil {
			st.mu.Unlock()
			return err
		}
		var reads, hits uint64
		for ; i < len(keys); i++ {
			reads++
			if slots[i].state == slotHit {
				hits++
			}
			if !out[i].Found {
				// Backend miss or fetch failure (including ctx
				// cancellation): the read fails but the transaction
				// survives; a lastOp flag still completes it.
				err = ErrNotFound
				if slots[i].state != slotMiss {
					err = fetchErr
				}
				break
			}
			if _, bad := rec.admit(keys[i], slots[i].hash, out[i].Item, slots[i].depHash); bad {
				break
			}
			// Copy-on-write sharing: cached values are immutable (updates
			// replace the whole item, never mutate the slice), so the
			// caller gets the cached slice, not a copy per read.
			vals[i] = out[i].Item.Value
		}
		st.hot.count(reads, hits)
		if err != nil || i == len(keys) {
			c.release(st, txnID, rec, lastOp && i >= len(keys)-1)
			return err
		}
		st.mu.Unlock()

		r := keyRead{key: keys[i], hash: slots[i].hash, item: out[i].Item, depHash: slots[i].depHash}
		served, err := c.readLocked(ctx, st, txnID, rec, r, lastOp && i == len(keys)-1)
		if err != nil {
			return err
		}
		vals[i] = served.Value
		if out[i].Item.Version.Less(served.Version) {
			// RETRY refetched the key: a later duplicate in this batch
			// must see what the refetch installed, as a later Read would.
			for j := i + 1; j < len(keys); j++ {
				if keys[j] == keys[i] {
					out[j].Item, slots[j].depHash = served, c.hashDeps(served.Deps)
				}
			}
		}
		if i++; i == len(keys) {
			return nil
		}
	}
}

// txnLocked returns txnID's record, creating it when the transaction is
// new. want is the record an earlier step of the same read resolved: if
// the stripe no longer holds it, the transaction was finished while no
// lock was held (Close drained it, GC collected it, or a concurrent
// Abort/Commit raced this read) and its completion has been emitted —
// the read fails rather than resurrect it with its validation state
// lost. Callers hold st.mu.
//
//tcache:hotpath
//tcache:holds stripe
func (c *Cache) txnLocked(st *txnStripe, txnID kv.TxnID, want *txnRecord) (*txnRecord, error) {
	if c.closed.Load() {
		// Close drained this stripe (or is about to); don't create a
		// record it would never complete.
		return nil, ErrClosed
	}
	rec, ok := st.txns[txnID]
	switch {
	case want != nil && rec != want:
		return nil, ErrTxnAborted
	case !ok:
		rec = newTxnRecord()
		st.txns[txnID] = rec
		st.hot[hotTxnsStarted]++
	}
	if c.cfg.TxnGC > 0 {
		// Only the GC sweeper reads lastUsed; without one, skip the clock
		// read on every served hit.
		rec.lastUsed = c.clk.Now()
	}
	return rec, nil
}

// readLocked reads r.key for the strategy code: it takes the entry shard
// of the key, then the transaction stripe — the fixed order — and
// re-validates r.item (what the pass collected for the key) under both:
// it serves the item if it now passes, else hands the violation to
// handleViolation (RETRY's refetch or the abort). It returns the item it
// served with both locks released.
func (c *Cache) readLocked(ctx context.Context, st *txnStripe, txnID kv.TxnID, rec *txnRecord, r keyRead, lastOp bool) (kv.Item, error) {
	sh := c.shards[c.shardIndex(r.hash)]
	sh.mu.Lock()
	st.mu.Lock()
	if _, err := c.txnLocked(st, txnID, rec); err != nil {
		st.mu.Unlock()
		sh.mu.Unlock()
		return kv.Item{}, err
	}
	if v, bad := rec.admit(r.key, r.hash, r.item, r.depHash); bad {
		return c.handleViolation(ctx, sh, st, txnID, rec, r, v, lastOp)
	}
	return c.serve(sh, st, txnID, rec, r.item, lastOp)
}

// serve returns item, which admit has folded into the record, releasing
// sh.mu then st.mu and emitting any completion afterwards.
//
//tcache:holds shard,stripe
func (c *Cache) serve(sh *cacheShard, st *txnStripe, txnID kv.TxnID, rec *txnRecord, item kv.Item, lastOp bool) (kv.Item, error) {
	sh.mu.Unlock()
	c.release(st, txnID, rec, lastOp)
	return item, nil
}

// Get is the plain, non-transactional read API (a consistency-unaware
// cache access). It shares the store, TTL handling, and miss path with
// Read. ctx bounds the backend fetch on a miss.
//
//tcache:hotpath
func (c *Cache) Get(ctx context.Context, key kv.Key) (kv.Value, error) {
	item, err := c.lookupOne(ctx, key, kv.Version{})
	return item.Value, err // shared read-only; see readPass
}

// Commit finalizes a transaction without a further read, for clients
// that cannot know in advance which read is their last and therefore
// never set lastOp. The transaction is reported as committed. Committing
// an unknown transaction is a no-op.
func (c *Cache) Commit(txnID kv.TxnID) { c.finish(txnID, true) }

// Abort discards the transaction record without a final read; the
// transaction is reported as aborted. Aborting an unknown transaction is a
// no-op (it may have been garbage-collected already).
func (c *Cache) Abort(txnID kv.TxnID) { c.finish(txnID, false) }

//tcache:hotpath
func (c *Cache) finish(txnID kv.TxnID, committed bool) {
	st := c.stripeFor(txnID)
	st.mu.Lock()
	rec, ok := st.txns[txnID]
	if !ok {
		st.mu.Unlock()
		return
	}
	if !committed {
		c.metrics.TxnsAborted.Add(1)
	}
	c.finishStripeLocked(st, txnID, committed)
	st.mu.Unlock()
	c.emit(txnID, rec, committed, nil)
}

// release ends a read's hold on the stripe: it unlocks st.mu and, when
// commit is set (the read carried lastOp), first finishes the transaction
// as committed and afterwards emits its completion.
//
//tcache:hotpath
//tcache:holds stripe
func (c *Cache) release(st *txnStripe, txnID kv.TxnID, rec *txnRecord, commit bool) {
	if !commit {
		st.mu.Unlock()
		return
	}
	c.finishStripeLocked(st, txnID, true)
	st.mu.Unlock()
	c.emit(txnID, rec, true, nil)
}

// keyRead is one key on its way through the §III-B checks: the item the
// cache or the backend produced for it, and the hashes the checks find
// record rows by.
type keyRead struct {
	key     kv.Key
	hash    uint64 // the key's hash
	item    kv.Item
	depHash []uint64 // the hashes of item.Deps' keys, positionally
}

// admit evaluates the paper's two consistency checks for reading item —
// key's, with hash and depHash as in keyRead — under rec and, when both
// pass, folds the read into the record. A violation leaves the record
// untouched: the key and every dependency are checked before anything is
// written.
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
//
//tcache:hotpath
func (rec *txnRecord) admit(key kv.Key, hash uint64, item kv.Item, depHash []uint64) (violation, bool) {
	at := append(rec.at[:0], rec.find(0, hash, key))
	if i := at[0]; i >= 0 {
		row := &rec.rows[i]
		if item.Version.Less(row.expected) {
			return violation{equation: 2, staleKey: key, staleBelow: row.expected}, true
		}
		if row.seq > 0 && row.read.Less(item.Version) {
			return violation{equation: 1, staleKey: key, staleBelow: item.Version}, true
		}
	}
	for j, dep := range item.Deps {
		i := rec.find(0, depHash[j], dep.Key)
		if i >= 0 && rec.rows[i].seq > 0 && rec.rows[i].read.Less(dep.Version) {
			return violation{equation: 1, staleKey: dep.Key, staleBelow: dep.Version}, true
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
		i = rec.add(hash, key)
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
			if i = rec.find(fresh, depHash[j], dep.Key); i < 0 {
				i = rec.add(depHash[j], dep.Key)
			}
		}
		if row := &rec.rows[i]; row.expected.Less(dep.Version) {
			row.expected = dep.Version
		}
	}
	return violation{}, false
}

// handleViolation applies the configured strategy to a detected violation.
// Called with sh.mu (the entry shard of key) and st.mu held; returns with
// both released. The returned item is set only when StrategyRetry
// resolved the read.
//
// An equation-2 violator is the key being read itself, so RETRY evicts it
// from the already-held shard before refetching. An equation-1 violator
// may hash to a different shard; it is evicted after both locks are
// dropped (the eviction is version-conditional, so running it late is
// safe), keeping the one-entry-shard-at-a-time invariant.
//
//tcache:holds shard,stripe
func (c *Cache) handleViolation(ctx context.Context, sh *cacheShard, st *txnStripe, txnID kv.TxnID, rec *txnRecord, r keyRead, v violation, lastOp bool) (kv.Item, error) {
	key, item := r.key, r.item
	c.metrics.Detected.Add(1)
	if v.equation == 1 {
		c.metrics.DetectedEq1.Add(1)
	} else {
		c.metrics.DetectedEq2.Add(1)
	}

	if c.cfg.Strategy == StrategyRetry && v.equation == 2 {
		// The violator is the object being read: treat the access as a
		// miss and serve it from the database (§III-B, RETRY). Both locks
		// are released around the refetch — a second, non-transactional
		// read of key, counted as one — and re-taken in order afterwards.
		c.metrics.Retries.Add(1)
		c.evictStaleShardLocked(sh, v)
		st.mu.Unlock()
		sh.mu.Unlock()
		fresh, err := c.lookupOne(ctx, key, kv.Version{})
		if errors.Is(err, ErrClosed) {
			return kv.Item{}, ErrClosed
		}
		sh.mu.Lock()
		st.mu.Lock()
		if _, terr := c.txnLocked(st, txnID, rec); terr != nil {
			st.mu.Unlock()
			sh.mu.Unlock()
			return kv.Item{}, terr
		}
		if err != nil && !errors.Is(err, ErrNotFound) {
			// The re-fetch failed outright (ctx cancelled, backend dead):
			// propagate the failure instead of converting it into an
			// abort; the transaction record survives for the caller.
			st.mu.Unlock()
			sh.mu.Unlock()
			return kv.Item{}, err
		}
		if err == nil {
			v2, bad := rec.admit(key, r.hash, fresh, c.hashDeps(fresh.Deps))
			if !bad {
				c.metrics.RetriesResolved.Add(1)
				return c.serve(sh, st, txnID, rec, fresh, lastOp)
			}
			// The fresh copy exposes a violation among *previous* reads;
			// fall through to evict-and-abort with the new evidence.
			v = v2
			item = fresh
		}
	}

	// The violating (too-old) object is likely a repeat offender: drop it
	// so future transactions re-fetch (§III-B, EVICT).
	var staleShard *cacheShard
	if c.cfg.Strategy == StrategyEvict || c.cfg.Strategy == StrategyRetry {
		staleShard = c.shardFor(v.staleKey)
		if staleShard == sh {
			c.evictStaleShardLocked(sh, v)
			staleShard = nil
		}
	}

	c.metrics.TxnsAborted.Add(1)
	c.finishStripeLocked(st, txnID, false)
	st.mu.Unlock()
	sh.mu.Unlock()
	if staleShard != nil {
		staleShard.mu.Lock()
		c.evictStaleShardLocked(staleShard, v)
		staleShard.mu.Unlock()
	}
	c.emit(txnID, rec, false, &ReadVersion{Key: key, Version: item.Version})
	return kv.Item{}, &InconsistencyError{TxnID: txnID, Key: key, StaleKey: v.staleKey, Equation: v.equation}
}

// evictStaleShardLocked removes the violating object's cached copy if it
// is still older than the version the violation demands. Callers hold the
// mutex of sh, the shard of v.staleKey.
//
//tcache:holds shard
func (c *Cache) evictStaleShardLocked(sh *cacheShard, v violation) {
	if e, ok := sh.entries[v.staleKey]; ok && e.item.Version.Less(v.staleBelow) {
		sh.removeEntry(e)
		c.metrics.Evictions.Add(1)
	}
}

// finishStripeLocked removes the transaction's record from its stripe;
// callers emit its completion once every lock is released.
//
//tcache:hotpath
//tcache:holds stripe
func (c *Cache) finishStripeLocked(st *txnStripe, txnID kv.TxnID, committed bool) {
	delete(st.txns, txnID)
	if committed {
		st.hot[hotTxnsCommitted]++
	}
}
