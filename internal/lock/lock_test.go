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
	if err := m.Acquire(bg, 1, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- m.Acquire(ctx, 2, "k", Exclusive) }()
	waitQueued(t, m, "k", 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Acquire = %v, want context.Canceled", err)
	}
	// The withdrawn waiter must not block later waiters: owner 3 queues
	// behind nobody once 1 releases.
	got := make(chan error, 1)
	go func() { got <- m.Acquire(bg, 3, "k", Exclusive) }()
	m.ReleaseAll(1)
	if err := <-got; err != nil {
		t.Fatalf("post-cancel Acquire = %v", err)
	}
}

func TestAcquireWithPreCancelledContext(t *testing.T) {
	m := NewManager()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.Acquire(ctx, 1, "k", Shared); !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire = %v, want context.Canceled", err)
	}
	if !tryAcquire(m, 2, "k", Exclusive) {
		t.Fatal("cancelled acquire left the lock held")
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(bg, 1, "k", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(bg, 2, "k", Shared); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
	m.ReleaseAll(2)
}

func TestExclusiveBlocksShared(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(bg, 1, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	if tryAcquire(m, 2, "k", Shared) {
		t.Fatal("shared granted while exclusive held")
	}
	m.ReleaseAll(1)
	if !tryAcquire(m, 2, "k", Shared) {
		t.Fatal("shared not granted after release")
	}
}

func TestReacquireIsNoop(t *testing.T) {
	m := NewManager()
	for i := 0; i < 3; i++ {
		if err := m.Acquire(bg, 1, "k", Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	m.ReleaseAll(1)
	if !tryAcquire(m, 2, "k", Exclusive) {
		t.Fatal("lock not fully released")
	}
}

func TestSharedHolderSatisfiesSharedRequest(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(bg, 1, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	// Exclusive >= Shared: no downgrade, still granted.
	if err := m.Acquire(bg, 1, "k", Shared); err != nil {
		t.Fatal(err)
	}
	if tryAcquire(m, 2, "k", Shared) {
		t.Fatal("shared granted to another owner: the exclusive lock was downgraded")
	}
}

func TestBlockedAcquireWakesOnRelease(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(bg, 1, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.Acquire(bg, 2, "k", Exclusive) }()
	waitQueued(t, m, "k", 1)
	m.ReleaseAll(1)
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
	if err := m.Acquire(bg, 1, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- m.Acquire(bg, 2, "k", Exclusive) }()
	waitQueued(t, m, "k", 1)
	m.Close()
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := m.Acquire(bg, 3, "x", Shared); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquire after close = %v, want ErrClosed", err)
	}
	m.Close() // idempotent
}

func TestFIFOOrdering(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(bg, 1, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []Owner
	var wg sync.WaitGroup
	for i := Owner(2); i <= 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.Acquire(bg, i, "k", Exclusive); err != nil {
				t.Errorf("owner %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			m.ReleaseAll(i)
		}()
		waitQueued(t, m, "k", int(i-1)) // serialize enqueue order
	}
	m.ReleaseAll(1)
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
				owner := Owner(g*iterations + i + 1)
				k1 := fmt.Sprintf("k%d", (g+i)%keys)
				k2 := fmt.Sprintf("k%d", (g+i+1)%keys)
				// Ordered acquisition avoids deadlock here; we verify
				// mutual exclusion, not victim selection.
				if k2 < k1 {
					k1, k2 = k2, k1
				}
				if err := m.Acquire(bg, owner, k1, Exclusive); err != nil {
					t.Errorf("acquire %s: %v", k1, err)
					return
				}
				if k2 != k1 {
					if err := m.Acquire(bg, owner, k2, Exclusive); err != nil {
						t.Errorf("acquire %s: %v", k2, err)
						m.ReleaseAll(owner)
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
				m.ReleaseAll(owner)
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

// tryAcquire reports whether owner gets key in mode without waiting: a
// grantable request is granted before Acquire ever looks at the timeout.
func tryAcquire(m *Manager, owner Owner, key string, mode Mode) bool {
	ctx, cancel := context.WithTimeout(bg, 10*time.Millisecond)
	defer cancel()
	return m.Acquire(ctx, owner, key, mode) == nil
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

// TestCancelledWaitWakesCompatibleWaiters: owner 1 holds S, owner 2
// queues for X and owner 3 for S behind it. When owner 2 gives up, owner
// 3 is compatible with the holder and must be granted at once, not when
// owner 1 releases; the emptied lock entry is then collected.
func TestCancelledWaitWakesCompatibleWaiters(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(bg, 1, "k", Shared); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	x := make(chan error, 1)
	go func() { x <- m.Acquire(ctx, 2, "k", Exclusive) }()
	waitQueued(t, m, "k", 1)
	s := make(chan error, 1)
	go func() { s <- m.Acquire(bg, 3, "k", Shared) }()
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
	m.ReleaseAll(1)
	m.ReleaseAll(3)
	m.mu.Lock()
	n := len(m.locks)
	m.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d lock entries left after every holder released, want 0", n)
	}
}

// TestUpgradeRefused: a Shared holder asking for Exclusive gets an error
// at once, keeps its Shared lock, and queues nothing.
func TestUpgradeRefused(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(bg, 1, "k", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(bg, 1, "k", Exclusive); err == nil {
		t.Fatal("upgrade granted")
	}
	if n := m.Waiting("k"); n != 0 {
		t.Fatalf("%d waiters after a refused upgrade, want 0", n)
	}
	if !tryAcquire(m, 2, "k", Shared) || tryAcquire(m, 3, "k", Exclusive) {
		t.Fatal("refused upgrade changed the held mode")
	}
}
