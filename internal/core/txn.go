package core

import (
	"context"
	"sync"
	"time"

	"tcache/internal/kv"
)

// Txn is one read-only transaction: the record its reads are validated
// against (§III-B) and what the cache reports when it ends.
//
// A record has exactly one guard. A Txn from Begin is owned: its caller
// alone uses it, from Begin to Finish, so nothing locks it and no table
// holds it. A Txn of the ID-keyed API (Cache.Read, ReadMulti and Abort by
// TxnID, for an in-process caller that spreads one transaction over
// several calls) outlives a call, so it lives in the transaction table,
// whose rule is checkout's.
type Txn struct {
	c  *Cache
	id kv.TxnID
	// st is stripeFor(id): it counts t, and holds t when t is ID-keyed.
	st  *txnStripe
	rec txnRecord
	// start, set by Begin, is the start of t's first batch read: a caller
	// that times the whole transaction hands its stamp over rather than
	// the batch reading the clock again.
	start time.Time
	// begun is set by the first read to reach validation: from then on t
	// counts as started and its end is reported.
	begun bool
	// err is why the cache ended t before its holder did — the
	// *InconsistencyError of a detected violation, or ErrClosed — and
	// what every later read and Finish returns; nil while t is open.
	err error

	// busy, of an ID-keyed Txn, is set while a call has it checked out;
	// guarded by st.mu (see checkout).
	busy bool
}

// txnPool recycles ended transactions, record and all.
var txnPool = sync.Pool{New: func() any { return new(Txn) }}

// newTxn returns an open, empty Txn for id.
func (c *Cache) newTxn(id kv.TxnID) *Txn {
	t := txnPool.Get().(*Txn)
	t.c, t.id, t.st = c, id, c.stripeFor(id)
	t.rec.reset()
	t.start, t.begun, t.err, t.busy = time.Time{}, false, nil, false
	return t
}

// recycle returns t to the pool; its holder must not use it again.
func (t *Txn) recycle() {
	t.c = nil
	txnPool.Put(t)
}

// Begin starts the read-only transaction id, owned by the caller until
// Finish. id names it in its completion and errors. start, unless zero,
// is the start of its first batch read (ReadMulti): telemetry then times
// that batch from the caller's own stamp.
func (c *Cache) Begin(id kv.TxnID, start time.Time) *Txn {
	t := c.newTxn(id)
	t.start = start
	return t
}

// Read reads key within t, validating it against t's earlier reads: the
// values, errors, completions and counters of Cache.Read, without the
// table. Once the cache has ended t (a detected violation, or Close) it
// returns why.
func (t *Txn) Read(ctx context.Context, key kv.Key) (kv.Value, error) {
	val, _, err := t.read(ctx, key)
	return val, err
}

// ReadMulti reads keys, in order, within t: Cache.ReadMulti's one pass,
// without the table.
func (t *Txn) ReadMulti(ctx context.Context, keys []kv.Key) ([]kv.Value, error) {
	vals, _, err := t.readMulti(ctx, keys)
	return vals, err
}

// Finish ends t — committed, or aborted — reports it to the completion
// hooks and recycles it: t must not be used afterwards. A transaction
// that never read ends without a report. One the cache already ended is
// not reported again; Finish returns why it ended. Once the cache is
// closed, Finish ends t aborted-on-close and returns ErrClosed.
func (t *Txn) Finish(commit bool) error {
	err := t.finish(commit)
	t.recycle()
	return err
}

// read is Read, also reporting whether the read reached its key (see
// readPass).
func (t *Txn) read(ctx context.Context, key kv.Key) (kv.Value, bool, error) {
	t.start = time.Time{} // the first read was no batch: the stamp is spent
	var (
		keys  = [1]kv.Key{key}
		out   [1]kv.Lookup
		slots [1]keySlot
		vals  [1]kv.Value
	)
	last, err := t.c.readPass(ctx, t, keys[:], out[:], slots[:], vals[:])
	return vals[0], last, err
}

// readMulti is ReadMulti, also reporting whether the pass reached its
// last key (see readPass).
func (t *Txn) readMulti(ctx context.Context, keys []kv.Key) ([]kv.Value, bool, error) {
	c := t.c
	start := t.start
	t.start = time.Time{}
	if len(keys) == 0 {
		// Nothing to read, but an empty batch answers for its transaction
		// and its ctx as a full one would.
		if err := t.check(); err != nil {
			return nil, false, err
		}
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		return nil, true, nil
	}
	if c.tel != nil && start.IsZero() {
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
	last, err := c.readPass(ctx, t, keys, out[:len(keys)], slots[:len(keys)], vals)
	if err != nil {
		return nil, last, err
	}
	if c.tel != nil {
		c.tel.ReadMulti.Stripe(uint64(t.id)).ObserveSince(start)
	}
	return vals, true, nil
}

// check returns why t cannot read: the cache ended it, or is closed.
func (t *Txn) check() error {
	if t.err != nil {
		return t.err
	}
	if t.c.closed.Load() {
		return t.closedOut()
	}
	return nil
}

// begin counts t as started, at its first read to reach validation.
func (t *Txn) begin() {
	if !t.begun {
		t.begun = true
		t.st.hot[hotTxnsStarted].Add(1)
	}
}

// count adds a pass's reads, hits of them served from the cache, to t's
// stripe: only the counters that moved, so a warm pass adds one.
func (t *Txn) count(reads, hits uint64) {
	if hits > 0 {
		t.st.hot[hotHits].Add(hits)
	}
	if misses := reads - hits; misses > 0 {
		t.st.hot[hotMisses].Add(misses)
	}
}

// end counts t's outcome on counter and reports it to the completion
// hooks — attempted is the read an abort blocked. Hooks get their own
// copy of the reads, so they may keep it; with none registered end
// builds no report. Callers hold no lock.
func (t *Txn) end(counter *uint64v, committed bool, attempted *ReadVersion) {
	counter.Add(1)
	if hooks := t.c.hooks.Load(); hooks != nil {
		comp := Completion{TxnID: t.id, Reads: t.rec.readSet(), Committed: committed, Attempted: attempted}
		for _, h := range *hooks {
			h(comp)
		}
	}
}

// finish ends t at its holder's request: committed or aborted, or — the
// cache being closed — aborted-on-close, returning ErrClosed. If the
// cache already ended t it returns why and reports nothing more; a t that
// never began ends without a report.
func (t *Txn) finish(commit bool) error {
	if err := t.check(); err != nil {
		return err
	}
	switch {
	case !t.begun:
	case commit:
		t.end(&t.st.hot[hotTxnsCommitted], true, nil)
	default:
		t.end(&t.c.metrics.TxnsAborted, false, nil)
	}
	return nil
}

// closedOut is t's answer to a closed cache. Close drains only the idle
// part of the transaction table, so a Txn it cannot reach — owned, or
// checked out by a call — ends itself aborted-on-close, once, the first
// time it meets the closed cache. It returns ErrClosed.
func (t *Txn) closedOut() error {
	if t.err == nil {
		t.err = ErrClosed
		if t.begun {
			t.end(&t.c.metrics.TxnsAbortedOnClose, false, nil)
		}
	}
	return ErrClosed
}

// checkout hands the caller of an ID-keyed call the Txn of txnID — a
// fresh one if the table has none — checked out for that call, or fails
// with ErrClosed, or with ErrTxnBusy if another call has it.
//
// The transaction table's rule: a stripe's mutex guards its map and, of
// each Txn in it, busy — nothing else, and it is never held with an entry
// shard. A call checks its Txn out (busy set under the mutex), uses it as
// its owner with no lock held, and hands it back (checkin). Whatever else
// meets a busy Txn leaves it to that call: Close skips it, and a second
// call or an Abort for the same ID fails at once with ErrTxnBusy. Every
// caller of this API is in-process and mints its own IDs, so two calls
// meet on one only by the caller's own doing.
func (c *Cache) checkout(txnID kv.TxnID) (*Txn, error) {
	st := c.stripeFor(txnID)
	st.mu.Lock()
	if c.closed.Load() {
		// Close drained this stripe, or is about to: don't add a Txn it
		// would never end.
		st.mu.Unlock()
		return nil, ErrClosed
	}
	t := st.txns[txnID]
	switch {
	case t == nil:
		t = c.newTxn(txnID)
		st.txns[txnID] = t
	case t.busy:
		st.mu.Unlock()
		return nil, ErrTxnBusy
	}
	t.busy = true
	st.mu.Unlock()
	return t, nil
}

// checkin hands t back after a call. t ends here if the call commits it
// (its read carried lastOp), if the cache ended it, if the call never
// began it, or if the cache closed — then checkin returns finish's error;
// otherwise t waits in the table for the next call.
func (c *Cache) checkin(t *Txn, commit bool) error {
	st := t.st
	st.mu.Lock()
	t.busy = false
	if !commit && t.err == nil && t.begun && !c.closed.Load() {
		st.mu.Unlock()
		return nil
	}
	delete(st.txns, t.id)
	st.mu.Unlock()
	err := t.finish(commit)
	t.recycle()
	return err
}
