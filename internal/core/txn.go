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
// A Txn is owned: its caller alone uses it, from Begin to Finish, so
// nothing locks it. Calls on one Txn must not overlap.
type Txn struct {
	c   *Cache
	id  kv.TxnID
	st  *txnStripe // stripeFor(id), which counts t
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
	// missBuf backs a read pass's miss list, unzeroed between passes.
	missBuf [batchInline]recRow
}

// txnPool recycles ended transactions, record and all.
var txnPool = sync.Pool{New: func() any { return new(Txn) }}

// Begin starts the read-only transaction id, owned by the caller until
// Finish. id names it in its completion and errors. start, unless zero,
// is the start of its first batch read (ReadMulti): telemetry then times
// that batch from the caller's own stamp.
func (c *Cache) Begin(id kv.TxnID, start time.Time) *Txn {
	t := txnPool.Get().(*Txn)
	t.c, t.id, t.st = c, id, c.stripeFor(id)
	t.rec.reset()
	t.start, t.begun, t.err = start, false, nil
	return t
}

// Finish ends t — committed, or aborted — reports it to the completion
// hooks and recycles it: t must not be used afterwards. A transaction
// that never read ends without a report. One the cache already ended is
// not reported again; Finish returns why it ended. Once the cache is
// closed, Finish ends t aborted-on-close and returns ErrClosed.
func (t *Txn) Finish(commit bool) error {
	err := t.check()
	switch {
	case err != nil, !t.begun:
	case commit:
		t.end(&t.st.hot[hotTxnsCommitted], true, nil)
	default:
		t.end(&t.c.metrics.TxnsAborted, false, nil)
	}
	t.c = nil
	txnPool.Put(t)
	return err
}

// Read is the transactional read of key within t (§III-B): it returns
// the cached (or fetched) value, validated against every earlier read of
// t. The value is shared with the cache (copy-on-write: updates replace
// whole items, so a served slice is never mutated) and must be treated
// as read-only; a caller that needs to modify it copies it first
// (kv.Value.Clone).
//
// An inconsistency the strategy cannot resolve ends t aborted and returns
// an *InconsistencyError, which wraps ErrTxnAborted; so does every later
// read, and Finish. ErrNotFound, or a failed or cancelled backend fetch
// (ctx bounds it), fails the read and leaves t open to its holder. Once
// the cache is closed it returns ErrClosed.
func (t *Txn) Read(ctx context.Context, key kv.Key) (kv.Value, error) {
	t.start = time.Time{} // the first read was no batch: the stamp is spent
	var (
		keys  = [1]kv.Key{key}
		out   [1]kv.Lookup
		slots [1]keySlot
		vals  [1]kv.Value
	)
	err := t.c.readPass(ctx, t, keys[:], out[:], slots[:], vals[:])
	return vals[0], err
}

// ReadMulti performs the reads of keys, in order, within t — the values,
// errors, completions, evictions and counters of calling Read once per
// key — in one pass: every entry shard the keys touch is locked once, and
// all keys the cache cannot serve are fetched from the backend in ONE
// batch request (BatchBackend). A remote transactional read of N cold
// keys costs one round trip instead of N.
//
// Validation is unchanged: every key still passes the §III-B checks
// against t's record one at a time, in key order, and the configured
// strategy applies to any detected inconsistency. The first error stops
// the batch and is returned; keys behind it were looked up (and filled)
// but are neither validated nor counted as reads.
func (t *Txn) ReadMulti(ctx context.Context, keys []kv.Key) ([]kv.Value, error) {
	c := t.c
	start := t.start
	t.start = time.Time{}
	if len(keys) == 0 {
		// Nothing to read, but an empty batch answers for its transaction
		// and its ctx as a full one would.
		if err := t.check(); err != nil {
			return nil, err
		}
		return nil, ctx.Err()
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
	if err := c.readPass(ctx, t, keys, out[:len(keys)], slots[:len(keys)], vals); err != nil {
		return nil, err
	}
	if c.tel != nil {
		c.tel.ReadMulti.Stripe(uint64(t.id)).ObserveSince(start)
	}
	return vals, nil
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

// closedOut is t's answer to a closed cache: it ends t aborted-on-close,
// once, the first time t meets the closed cache, and returns ErrClosed.
// Close reaches no Txn a caller holds, so each ends itself here, at its
// next read or at Finish.
func (t *Txn) closedOut() error {
	if t.err == nil {
		t.err = ErrClosed
		if t.begun {
			t.end(&t.c.metrics.TxnsAbortedOnClose, false, nil)
		}
	}
	return ErrClosed
}
