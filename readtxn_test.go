package tcache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"tcache/internal/core"
	"tcache/internal/kv"
)

// TestReadTxKeptPastReadTxn: a ReadTx kept after its ReadTxn returned
// cannot reopen the transaction — a late Get or GetMulti fails with
// ErrTxnDone and starts nothing (it used to start a transaction that
// nothing ever ended).
func TestReadTxKeptPastReadTxn(t *testing.T) {
	d, c := openPair(t)
	if err := d.Update(bg, func(tx *Tx) error { return tx.Set("k", Value("v")) }); err != nil {
		t.Fatal(err)
	}
	var kept *ReadTx
	if err := c.ReadTxn(bg, func(tx *ReadTx) error {
		kept = tx
		_, err := tx.Get(bg, "k")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := kept.Get(bg, "k"); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("late Get = %v, want ErrTxnDone", err)
	}
	if _, err := kept.GetMulti(bg, "k"); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("late GetMulti = %v, want ErrTxnDone", err)
	}
	m := c.Stats()
	if got := c.Core().ActiveTxns(); got != 0 || m.TxnsStarted != 1 || m.TxnsCommitted != 1 {
		t.Fatalf("after the late reads: ActiveTxns %d, started %d, committed %d; want 0, 1, 1", got, m.TxnsStarted, m.TxnsCommitted)
	}
}

// TestReadTxnCloseHammer is internal/core's TestShardHammer through the
// public API: ReadTxn from eight goroutines — half key by key, half one
// GetMulti — while a writer commits pairs of keys whose invalidations a
// lossy link drops, and Close mid-flight. Every transaction that read
// anything completes exactly once (committed, aborted, or
// aborted-on-close) and the counters balance. Run under -race in CI.
func TestReadTxnCloseHammer(t *testing.T) {
	const (
		nKeys   = 64
		readers = 8
	)
	d := OpenDB()
	t.Cleanup(func() { d.Close() })
	keys := make([]Key, nKeys)
	for i := range keys {
		keys[i] = Key(fmt.Sprintf("h%03d", i))
	}
	if err := d.Update(bg, func(tx *Tx) error {
		for _, k := range keys {
			if err := tx.Set(k, Value("v0")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	c, err := NewCache(d, WithStrategy(StrategyRetry), WithLossyLink(0.3, 0, 0, 1), WithCacheShards(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	var (
		compMu  sync.Mutex
		perTxn  = map[kv.TxnID]int{}
		doubled []kv.TxnID
	)
	c.Core().OnComplete(func(cp core.Completion) {
		compMu.Lock()
		perTxn[cp.TxnID]++
		if perTxn[cp.TxnID] > 1 {
			doubled = append(doubled, cp.TxnID)
		}
		compMu.Unlock()
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]Key, 5)
			for i := 0; ; i++ {
				for r := range batch {
					batch[r] = keys[(g*31+i*7+r*13)%nKeys]
				}
				err := c.ReadTxn(bg, func(tx *ReadTx) error {
					if g%2 == 1 {
						_, err := tx.GetMulti(bg, batch...)
						return err
					}
					for _, k := range batch {
						if _, err := tx.Get(bg, k); err != nil {
							return err
						}
					}
					return nil
				})
				switch {
				case errors.Is(err, core.ErrClosed):
					return
				case err != nil && !errors.Is(err, ErrTxnAborted):
					t.Errorf("ReadTxn: %v", err)
					return
				}
			}
		}()
	}

	// Writer: each update reads and rewrites two neighbouring keys, so
	// their dependency lists name each other; the link loses 30 % of the
	// invalidations.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			pair := []Key{keys[i%nKeys], keys[(i+1)%nKeys]}
			if err := d.Update(bg, func(tx *Tx) error {
				for _, k := range pair {
					if _, _, err := tx.Get(bg, k); err != nil {
						return err
					}
				}
				for _, k := range pair {
					if err := tx.Set(k, Value(fmt.Sprintf("v%d", i))); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Errorf("Update: %v", err)
				return
			}
			runtime.Gosched()
		}
	}()

	// Let the system churn, then close mid-flight.
	deadline := time.After(2 * time.Second)
	for {
		compMu.Lock()
		n := len(perTxn)
		compMu.Unlock()
		if n >= 300 {
			break
		}
		select {
		case <-deadline:
			t.Log("hammer: slow box, closing early")
		case <-time.After(time.Millisecond):
			continue
		}
		break
	}
	c.Close()
	close(stop)
	wg.Wait()

	if err := c.ReadTxn(bg, func(tx *ReadTx) error {
		_, err := tx.Get(bg, keys[0])
		return err
	}); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("ReadTxn after Close = %v, want ErrClosed", err)
	}
	if got := c.Core().ActiveTxns(); got != 0 {
		t.Fatalf("ActiveTxns = %d after Close", got)
	}
	compMu.Lock()
	defer compMu.Unlock()
	if len(doubled) > 0 {
		t.Fatalf("%d transactions completed twice (e.g. %d)", len(doubled), doubled[0])
	}
	m := c.Stats()
	finished := m.TxnsCommitted + m.TxnsAborted + m.TxnsAbortedOnClose
	if m.TxnsStarted != finished {
		t.Fatalf("accounting leak: started %d, finished %d (%+v)", m.TxnsStarted, finished, m)
	}
	if uint64(len(perTxn)) != finished {
		t.Fatalf("hooks saw %d completions, counters finished %d", len(perTxn), finished)
	}
	if m.Reads != m.Hits+m.Misses {
		t.Fatalf("Reads %d != Hits %d + Misses %d", m.Reads, m.Hits, m.Misses)
	}
	if m.TxnsCommitted == 0 {
		t.Fatal("no transaction committed: the hammer measured nothing")
	}
}
