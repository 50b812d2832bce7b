package core

import (
	"context"

	"tcache/internal/kv"
)

// Multiversion support (§VI related work, TxCache): "the cache holds
// several versions of an object and enables the cache to choose a version
// that allows a transaction to commit. This technique could also be used
// with our solution."
//
// With Config.Multiversion = V > 1, each cache entry retains up to V
// committed versions. A transactional read serves the NEWEST cached
// version that passes the §III-B checks against the transaction's record,
// so a transaction that began on an older snapshot can keep reading that
// snapshot instead of aborting — at zero database cost. Invalidations no
// longer evict: they mark the entry's newest version as no-longer-latest
// (it remains a valid committed version), and a read that needs something
// newer falls through to the backend, pushing the previous versions down
// the entry's history.
//
// The trade-off is the one TxCache accepts: snapshots served may be
// staler than with eviction. Serializability is unaffected — every served
// version passes the same checks.

// readMV validates item — what the read pass collected for key — against
// the transaction record and serves it; if it fails the §III-B checks it
// tries the entry's retained versions (none without multiversioning), and
// only then hands the violation to the strategy. Called with sh.mu (the
// entry shard of key) and st.mu held; returns the item it served with
// both locks released (via the shared completion paths).
//
// The latest version is preferred — exactly like the plain cache (entries
// whose newest version is known-superseded act as misses). Retained
// versions are consulted ONLY when the latest fails the checks:
// multiversioning converts would-be aborts into consistent serves, never
// fresh reads into stale ones.
//
//tcache:holds shard,stripe
func (c *Cache) readMV(ctx context.Context, sh *cacheShard, st *txnStripe, txnID kv.TxnID, rec *txnRecord, r keyRead, lastOp bool) (kv.Item, error) {
	v, bad := rec.admit(r.key, r.hash, r.item, r.depHash)
	if !bad {
		return c.serve(sh, st, txnID, rec, r.item, lastOp)
	}
	if e, ok := sh.entries[r.key]; ok {
		for _, old := range e.older {
			// Retained versions keep no hashes: this is the violation
			// path, which can afford to compute them.
			if _, oldBad := rec.admit(r.key, r.hash, old, c.hashDeps(old.Deps)); !oldBad {
				c.metrics.MVServedOld.Add(1)
				return c.serve(sh, st, txnID, rec, old, lastOp)
			}
		}
	}
	return c.handleViolation(ctx, sh, st, txnID, rec, r, v, lastOp)
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

// pushVersionLocked records that e's current item is superseded by item,
// retaining the old one in the version history (bounded by Multiversion).
// Callers hold the entry's shard mutex.
//
//tcache:holds shard
func (c *Cache) pushVersionLocked(e *entry, item kv.Item) {
	keep := c.cfg.Multiversion - 1
	if keep > 0 && !e.item.Version.IsZero() {
		e.older = append([]kv.Item{e.item}, e.older...)
		if len(e.older) > keep {
			e.older = e.older[:keep]
		}
	}
	c.setItemLocked(e, item)
	e.staleLatest = false
	e.fetchedAt = c.clk.Now()
}

// invalidateMVLocked marks the entry's newest cached version as
// superseded instead of evicting it. Callers hold the entry's shard mutex.
//
//tcache:holds shard
func (c *Cache) invalidateMVLocked(e *entry, version kv.Version) {
	if e.item.Version.Less(version) {
		e.staleLatest = true
		c.metrics.InvalidationsApplied.Add(1)
		return
	}
	c.metrics.InvalidationsStale.Add(1)
}

// dropStaleVersionsLocked removes cached versions of e older than
// staleBelow (EVICT/RETRY semantics under multiversioning); it reports
// whether the whole entry became empty and was removed. Callers hold
// sh.mu, the shard owning e.
//
//tcache:holds shard
func (c *Cache) dropStaleVersionsLocked(sh *cacheShard, e *entry, staleBelow kv.Version) bool {
	kept := e.older[:0]
	for _, old := range e.older {
		if !old.Version.Less(staleBelow) {
			kept = append(kept, old)
		}
	}
	e.older = kept
	if e.item.Version.Less(staleBelow) {
		if len(e.older) > 0 {
			c.setItemLocked(e, e.older[0])
			e.older = e.older[1:]
			e.staleLatest = true
			sh.ev.Update(&e.h, e.cost())
			return false
		}
		sh.removeEntry(e)
		return true
	}
	// Trimming the history shrank the entry: refund the difference.
	sh.ev.Update(&e.h, e.cost())
	return false
}
