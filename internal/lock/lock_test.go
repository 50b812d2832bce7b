package lock

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// bg is the background context used by tests that don't exercise
// cancellation.
var bg = context.Background()

func TestCancelledWaitUnblocksAndWithdraws(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(bg, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- m.Acquire(ctx, "k", Exclusive) }()
	waitQueued(t, m, "k", 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Acquire = %v, want context.Canceled", err)
	}
	// The withdrawn waiter must not block later waiters: a new request
	// queues behind nobody once the holder releases.
	got := make(chan error, 1)
	go func() { got <- m.Acquire(bg, "k", Exclusive) }()
	m.Release("k", Exclusive)
	if err := <-got; err != nil {
		t.Fatalf("post-cancel Acquire = %v", err)
	}
}

func TestAcquireWithPreCancelledContext(t *testing.T) {
	m := NewManager()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.Acquire(ctx, "k", Shared); !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire = %v, want context.Canceled", err)
	}
	if !tryAcquire(m, "k", Exclusive) {
		t.Fatal("cancelled acquire left the lock held")
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(bg, "k", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(bg, "k", Shared); err != nil {
		t.Fatal(err)
	}
	m.Release("k", Shared)
	m.Release("k", Shared)
}

func TestExclusiveBlocksShared(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(bg, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	if tryAcquire(m, "k", Shared) {
		t.Fatal("shared granted while exclusive held")
	}
	m.Release("k", Exclusive)
	if !tryAcquire(m, "k", Shared) {
		t.Fatal("shared not granted after release")
	}
}

func TestBlockedAcquireWakesOnRelease(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(bg, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.Acquire(bg, "k", Exclusive) }()
	waitQueued(t, m, "k", 1)
	m.Release("k", Exclusive)
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke")
	}
}

func TestCloseWakesWaiters(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(bg, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- m.Acquire(bg, "k", Exclusive) }()
	waitQueued(t, m, "k", 1)
	m.Close()
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := m.Acquire(bg, "x", Shared); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquire after close = %v, want ErrClosed", err)
	}
	m.Close() // idempotent
}

func TestFIFOOrdering(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(bg, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 2; i <= 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.Acquire(bg, "k", Exclusive); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			m.Release("k", Exclusive)
		}()
		waitQueued(t, m, "k", i-1) // serialize enqueue order
	}
	m.Release("k", Exclusive)
	wg.Wait()
	if len(order) != 3 || order[0] != 2 || order[1] != 3 || order[2] != 4 {
		t.Fatalf("grant order = %v, want [2 3 4]", order)
	}
}

func TestConcurrentStress(t *testing.T) {
	m := NewManager()
	const (
		goroutines = 16
		iterations = 200
		keys       = 8
	)
	var wg sync.WaitGroup
	var inCritical [keys]int32
	var mu sync.Mutex
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				k1 := fmt.Sprintf("k%d", (g+i)%keys)
				k2 := fmt.Sprintf("k%d", (g+i+1)%keys)
				// Ordered acquisition avoids deadlock here; we verify
				// mutual exclusion, not victim selection.
				if k2 < k1 {
					k1, k2 = k2, k1
				}
				if err := m.Acquire(bg, k1, Exclusive); err != nil {
					t.Errorf("acquire %s: %v", k1, err)
					return
				}
				if k2 != k1 {
					if err := m.Acquire(bg, k2, Exclusive); err != nil {
						t.Errorf("acquire %s: %v", k2, err)
						m.Release(k1, Exclusive)
						return
					}
				}
				mu.Lock()
				inCritical[(g+i)%keys]++
				if inCritical[(g+i)%keys] != 1 {
					t.Error("mutual exclusion violated")
				}
				inCritical[(g+i)%keys]--
				mu.Unlock()
				m.Release(k1, Exclusive)
				if k2 != k1 {
					m.Release(k2, Exclusive)
				}
			}
		}()
	}
	wg.Wait()
}

func TestModeString(t *testing.T) {
	if Shared.String() != "S" || Exclusive.String() != "X" {
		t.Fatal("bad Mode strings")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatalf("Mode(9).String() = %q", Mode(9).String())
	}
}

// tryAcquire reports whether key is granted in mode without waiting: a
// grantable request is granted before Acquire ever looks at the timeout.
func tryAcquire(m *Manager, key string, mode Mode) bool {
	ctx, cancel := context.WithTimeout(bg, 10*time.Millisecond)
	defer cancel()
	return m.Acquire(ctx, key, mode) == nil
}

// waitQueued returns once n acquisitions are queued on key.
func waitQueued(t *testing.T, m *Manager, key string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		q := m.Waiting(key)
		if q >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters queued on %q after 5s, want %d", q, key, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelledWaitWakesCompatibleWaiters: one caller holds S, a second
// queues for X and a third for S behind it. When the second gives up,
// the third is compatible with the holder and must be granted at once,
// not when the holder releases; the emptied lock entry is then
// recycled.
func TestCancelledWaitWakesCompatibleWaiters(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(bg, "k", Shared); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	x := make(chan error, 1)
	go func() { x <- m.Acquire(ctx, "k", Exclusive) }()
	waitQueued(t, m, "k", 1)
	s := make(chan error, 1)
	go func() { s <- m.Acquire(bg, "k", Shared) }()
	waitQueued(t, m, "k", 2)

	cancel()
	if err := <-x; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Acquire = %v, want context.Canceled", err)
	}
	select {
	case err := <-s:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shared waiter still blocked behind a withdrawn exclusive waiter")
	}
	m.Release("k", Shared)
	m.Release("k", Shared)
	m.mu.Lock()
	n := len(m.locks)
	m.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d lock entries left after every holder released, want 0", n)
	}
}

// TestWarmCycleAllocatesNothing: once a key's state has been recycled,
// an uncontended Acquire/Release cycle allocates nothing.
func TestWarmCycleAllocatesNothing(t *testing.T) {
	m := NewManager()
	keys := []string{"a", "b", "c"}
	cycle := func() {
		for _, k := range keys {
			if err := m.Acquire(bg, k, Exclusive); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Acquire(bg, "d", Shared); err != nil {
			t.Fatal(err)
		}
		if err := m.Acquire(bg, "d", Shared); err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			m.Release(k, Exclusive)
		}
		m.Release("d", Shared)
		m.Release("d", Shared)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("warm Acquire/Release cycle: %.1f allocs, want 0", n)
	}
}

// TestReleaseOfUnheldKeyPanics: a Release the table cannot match to a
// hold is a caller bug, reported at once rather than absorbed.
func TestReleaseOfUnheldKeyPanics(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(bg, "k", Shared); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key  string
		mode Mode
	}{{"k", Exclusive}, {"other", Shared}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Release(%q, %s) of an unheld lock did not panic", c.key, c.mode)
				}
			}()
			m.Release(c.key, c.mode)
		}()
	}
}
