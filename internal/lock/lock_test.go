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
	time.Sleep(10 * time.Millisecond)
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
	if got := m.HeldModes(1); len(got) != 0 {
		t.Fatalf("cancelled acquire left locks held: %v", got)
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
	if m.TryAcquire(2, "k", Shared) {
		t.Fatal("shared granted while exclusive held")
	}
	m.ReleaseAll(1)
	if !m.TryAcquire(2, "k", Shared) {
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
	if !m.TryAcquire(2, "k", Exclusive) {
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
	if got := m.HeldModes(1)["k"]; got != Exclusive {
		t.Fatalf("mode = %v, want X (no downgrade)", got)
	}
}

func TestBlockedAcquireWakesOnRelease(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(bg, 1, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.Acquire(bg, 2, "k", Exclusive) }()
	time.Sleep(10 * time.Millisecond) // let the goroutine enqueue
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

func TestUpgradeSharedToExclusive(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(bg, 1, "k", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(bg, 2, "k", Shared); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.Acquire(bg, 1, "k", Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	select {
	case err := <-got:
		t.Fatalf("upgrade granted while another sharer holds: %v", err)
	default:
	}
	m.ReleaseAll(2)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if m.HeldModes(1)["k"] != Exclusive {
		t.Fatal("upgrade did not take effect")
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(bg, 1, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(bg, 2, "b", Exclusive); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- m.Acquire(bg, 1, "b", Exclusive) }() // 1 waits on 2
	time.Sleep(20 * time.Millisecond)
	// 2 requesting "a" closes the cycle and must get ErrDeadlock.
	err := m.Acquire(bg, 2, "a", Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	// Victim aborts; txn 1 proceeds.
	m.ReleaseAll(2)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
}

func TestUpgradeDeadlockDetected(t *testing.T) {
	// Classic upgrade deadlock: both hold S, both request X.
	m := NewManager()
	if err := m.Acquire(bg, 1, "k", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(bg, 2, "k", Shared); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- m.Acquire(bg, 1, "k", Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	err := m.Acquire(bg, 2, "k", Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(2)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestCloseWakesWaiters(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(bg, 1, "k", Exclusive); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- m.Acquire(bg, 2, "k", Exclusive) }()
	time.Sleep(10 * time.Millisecond)
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
		time.Sleep(15 * time.Millisecond) // serialize enqueue order
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

func TestHeldModesSnapshot(t *testing.T) {
	m := NewManager()
	if err := m.Acquire(bg, 1, "a", Shared); err != nil {
		t.Fatal(err)
	}
	held := m.HeldModes(1)
	held["a"] = Exclusive // mutating the snapshot must not affect the table
	if m.HeldModes(1)["a"] != Shared {
		t.Fatal("HeldModes returned live map")
	}
}
