package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"tcache/internal/kv"
)

// TestOwnedTxnMeetsClose: Close cannot reach a Txn from Begin — no table
// holds it — so the Txn ends itself aborted-on-close, exactly once, at its
// next read or at Finish; one that never read ends without a report.
func TestOwnedTxnMeetsClose(t *testing.T) {
	b := newMapBackend()
	c, err := New(Config{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	b.put("x", "1", 1)
	var comps []Completion
	c.OnComplete(func(cp Completion) { comps = append(comps, cp) })

	reads, finishes, idle := c.Begin(1, time.Time{}), c.Begin(2, time.Time{}), c.Begin(3, time.Time{})
	for _, txn := range []*Txn{reads, finishes} {
		if _, err := txn.Read(bgc, "x"); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	if len(comps) != 0 || c.ActiveTxns() != 2 {
		t.Fatalf("Close reported %d owned transactions, left %d active; want 0 and 2", len(comps), c.ActiveTxns())
	}
	for i := 0; i < 2; i++ { // the second read finds the transaction ended
		if _, err := reads.ReadMulti(bgc, []kv.Key{"x"}); !errors.Is(err, ErrClosed) {
			t.Fatalf("read %d after Close = %v, want ErrClosed", i, err)
		}
	}
	for _, txn := range []*Txn{reads, finishes, idle} {
		if err := txn.Finish(true); !errors.Is(err, ErrClosed) {
			t.Fatalf("Finish after Close = %v, want ErrClosed", err)
		}
	}
	m := c.Metrics()
	if len(comps) != 2 || comps[0].Committed || comps[1].Committed || m.TxnsAbortedOnClose != 2 || m.TxnsCommitted != 0 {
		t.Fatalf("completions %+v, metrics %+v: want two aborted-on-close", comps, m)
	}
	if m.TxnsStarted != 2 || c.ActiveTxns() != 0 {
		t.Fatalf("started %d, active %d; want 2 and 0", m.TxnsStarted, c.ActiveTxns())
	}
}

// cancelBackend cancels the request's ctx inside the fetch of "slow".
type cancelBackend struct{ *mapBackend }

func (b cancelBackend) ReadItem(ctx context.Context, key kv.Key) (kv.Item, bool, error) {
	if key == "slow" {
		ctx.Value(cancelKey{}).(context.CancelFunc)()
	}
	return b.mapBackend.ReadItem(ctx, key)
}

// TestIDReadTxnEndsOnError: a failed Read by TxnID ends its transaction
// aborted — an absent key, a ctx cancelled mid-fetch and an eq.2 abort
// alike — with exactly one completion, so none is left parked; the ID's
// next Read begins afresh.
func TestIDReadTxnEndsOnError(t *testing.T) {
	b := newMapBackend()
	c := newCache(t, Config{Backend: cancelBackend{b}, Strategy: StrategyAbort})
	b.put("x", "1", 1)
	b.put("slow", "1", 1)
	b.put("B", "b-old", 1)
	if _, err := c.Get(bgc, "B"); err != nil { // the cache holds B@1
		t.Fatal(err)
	}
	b.put("B", "b-new", 2)
	b.put("A", "a-new", 2, dep("B", 2))
	var comps []Completion
	c.OnComplete(func(cp Completion) { comps = append(comps, cp) })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i, tc := range []struct {
		ctx       context.Context
		first     kv.Key
		failing   kv.Key
		wantError error
	}{
		{bgc, "x", "ghost", ErrNotFound},
		{context.WithValue(ctx, cancelKey{}, cancel), "x", "slow", context.Canceled},
		{bgc, "A", "B", ErrTxnAborted}, // A@2 expects B@2; the cache serves B@1
	} {
		id := kv.TxnID(i + 1)
		if _, err := c.Read(tc.ctx, id, tc.first, false); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(tc.ctx, id, tc.failing, false); !errors.Is(err, tc.wantError) {
			t.Fatalf("read of %s = %v, want %v", tc.failing, err, tc.wantError)
		}
		if len(comps) != 1 || comps[0].TxnID != id || comps[0].Committed || len(comps[0].Reads) != 1 {
			t.Fatalf("%v: completions %+v, want one aborted with %s read", tc.wantError, comps, tc.first)
		}
		if c.ActiveTxns() != 0 {
			t.Fatalf("%v: %d transactions still active", tc.wantError, c.ActiveTxns())
		}
		comps = nil
		if _, err := c.Read(bgc, id, "x", true); err != nil || len(comps) != 1 || !comps[0].Committed || len(comps[0].Reads) != 1 {
			t.Fatalf("%v: the ID's next read = %v, completions %+v; want a fresh transaction committed", tc.wantError, err, comps)
		}
		comps = nil
	}
}
