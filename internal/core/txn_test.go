package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"tcache/internal/clock"
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

// gateBackend holds every fetch of the key "slow" until released, so a
// test can keep an ID-keyed call inside its transaction.
type gateBackend struct {
	*mapBackend
	entered, release chan struct{}
}

func newGateBackend() *gateBackend {
	return &gateBackend{mapBackend: newMapBackend(), entered: make(chan struct{}), release: make(chan struct{})}
}

func (b *gateBackend) ReadItem(ctx context.Context, key kv.Key) (kv.Item, bool, error) {
	if key == "slow" {
		b.entered <- struct{}{}
		<-b.release
	}
	return b.mapBackend.ReadItem(ctx, key)
}

// awaitingHandback reports whether a call waits for txnID's Txn.
func awaitingHandback(c *Cache, txnID kv.TxnID) bool {
	st := c.stripeFor(txnID)
	st.mu.Lock()
	defer st.mu.Unlock()
	t := st.txns[txnID]
	return t != nil && t.handback != nil
}

// TestIDTxnLeftToItsCall: while an ID-keyed call is inside a transaction
// (blocked in a fetch), a second call for the same ID waits its turn —
// giving up with its ctx — and the GC sweeper and Close leave the
// transaction alone; an Abort asked meanwhile, or the Close, ends it when
// the call returns — once.
func TestIDTxnLeftToItsCall(t *testing.T) {
	for _, closeIt := range []bool{false, true} {
		clk := clock.NewSimAtZero()
		b := newGateBackend()
		c, err := New(Config{Backend: b, Clock: clk, TxnGC: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		b.put("x", "1", 1)
		b.put("slow", "2", 1)
		var comps []Completion
		c.OnComplete(func(cp Completion) { comps = append(comps, cp) })
		if _, err := c.Read(bgc, 7, "x", false); err != nil {
			t.Fatal(err)
		}
		done := make(chan error)
		go func() {
			_, err := c.Read(bgc, 7, "slow", false)
			done <- err
		}()
		<-b.entered
		waitCtx, cancel := context.WithCancel(bgc)
		waited := make(chan error)
		go func() {
			_, err := c.Read(waitCtx, 7, "x", false)
			waited <- err
		}()
		for !awaitingHandback(c, 7) {
			select {
			case err := <-waited:
				t.Fatalf("overlapping read returned %v while the first call was inside", err)
			default:
				runtime.Gosched()
			}
		}
		cancel()
		if err := <-waited; !errors.Is(err, context.Canceled) {
			t.Fatalf("overlapping read = %v, want its ctx's context.Canceled", err)
		}
		clk.RunFor(5 * time.Second) // the sweeper runs, and skips the busy transaction
		if closeIt {
			c.Close()
		} else {
			c.Abort(7)
		}
		if len(comps) != 0 {
			t.Fatalf("close=%v: the transaction ended under its call: %+v", closeIt, comps)
		}
		close(b.release)
		err = <-done
		m := c.Metrics()
		switch {
		case closeIt && (!errors.Is(err, ErrClosed) || m.TxnsAbortedOnClose != 1):
			t.Fatalf("read across Close = %v, aborted-on-close %d; want ErrClosed, 1", err, m.TxnsAbortedOnClose)
		case !closeIt && (err != nil || m.TxnsAborted != 1):
			t.Fatalf("read across Abort = %v, aborted %d; want nil, 1", err, m.TxnsAborted)
		}
		if len(comps) != 1 || comps[0].Committed || m.TxnsGCed != 0 || c.ActiveTxns() != 0 {
			t.Fatalf("close=%v: completions %+v, GCed %d, active %d; want one uncommitted, 0, 0", closeIt, comps, m.TxnsGCed, c.ActiveTxns())
		}
		c.Close()
	}
}
