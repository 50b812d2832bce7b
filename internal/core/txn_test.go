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

// TestIDTxnLeftToItsCall: while an ID-keyed call is inside a transaction
// (blocked in a fetch), a second call or an Abort for the same ID fails at
// once with ErrTxnBusy and leaves the transaction alone, and so does
// Close: a Close asked meanwhile ends it when the call returns — once.
// Without one the transaction stays open for its next call, and Abort
// ends it.
func TestIDTxnLeftToItsCall(t *testing.T) {
	for _, closeIt := range []bool{false, true} {
		b := newGateBackend()
		c, err := New(Config{Backend: b})
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
		if _, err := c.Read(bgc, 7, "x", false); !errors.Is(err, ErrTxnBusy) {
			t.Fatalf("overlapping Read = %v, want ErrTxnBusy", err)
		}
		if _, err := c.ReadMulti(bgc, 7, []kv.Key{"x"}, true); !errors.Is(err, ErrTxnBusy) {
			t.Fatalf("overlapping ReadMulti = %v, want ErrTxnBusy", err)
		}
		if err := c.Abort(7); !errors.Is(err, ErrTxnBusy) {
			t.Fatalf("overlapping Abort = %v, want ErrTxnBusy", err)
		}
		if closeIt {
			c.Close()
		}
		if len(comps) != 0 {
			t.Fatalf("close=%v: the transaction ended under its call: %+v", closeIt, comps)
		}
		close(b.release)
		err = <-done
		if closeIt {
			if m := c.Metrics(); !errors.Is(err, ErrClosed) || m.TxnsAbortedOnClose != 1 {
				t.Fatalf("read across Close = %v, aborted-on-close %d; want ErrClosed, 1", err, m.TxnsAbortedOnClose)
			}
		} else {
			if err != nil || c.ActiveTxns() != 1 {
				t.Fatalf("read beside the refused calls = %v, active %d; want nil, 1", err, c.ActiveTxns())
			}
			if err := c.Abort(7); err != nil {
				t.Fatal(err)
			}
			if m := c.Metrics(); m.TxnsAborted != 1 || len(comps) != 1 || len(comps[0].Reads) != 2 {
				t.Fatalf("after Abort: aborted %d, completions %+v; want 1 holding x and slow", m.TxnsAborted, comps)
			}
		}
		if len(comps) != 1 || comps[0].Committed || c.ActiveTxns() != 0 {
			t.Fatalf("close=%v: completions %+v, active %d; want one uncommitted, 0", closeIt, comps, c.ActiveTxns())
		}
		c.Close()
	}
}
