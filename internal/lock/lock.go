// Package lock implements the per-key lock table used by the database's
// update transactions (strict two-phase locking with shared/exclusive
// modes, lock upgrades, FIFO queuing, and wait-for-graph deadlock
// detection).
//
// The paper's backend is "a transactional key-value store with two-phase
// commit"; this lock manager is the concurrency-control half of that
// substrate. Two-phase commit exists there because its participants are
// separate machines; the database here is one participant, so a commit
// needs only these locks and one log record. Every wait ends in a grant,
// a deadlock verdict, the caller's ctx, or Close.
package lock

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Mode is a lock mode.
type Mode int

const (
	// Shared allows any number of concurrent readers.
	Shared Mode = iota + 1
	// Exclusive allows a single writer.
	Exclusive
)

func (m Mode) String() string {
	switch m {
	case Shared:
		return "S"
	case Exclusive:
		return "X"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Errors returned by Acquire.
var (
	// ErrDeadlock is returned to the requester whose wait would have
	// closed a cycle in the wait-for graph. The caller should abort and
	// retry its transaction.
	ErrDeadlock = errors.New("lock: deadlock detected")
	// ErrClosed is returned when the manager is shut down while waiting.
	ErrClosed = errors.New("lock: manager closed")
)

// Owner identifies a lock-holding transaction.
type Owner uint64

// Manager is a lock table keyed by string keys. The zero value is not
// usable; construct with NewManager.
type Manager struct {
	mu     sync.Mutex //tcache:lockclass lockmgr
	locks  map[string]*lockState
	held   map[Owner]map[string]Mode // reverse index for ReleaseAll
	closed bool
}

type lockState struct {
	holders map[Owner]Mode
	queue   []*waiter
}

type waiter struct {
	owner Owner
	mode  Mode
	ready chan error // buffered(1); receives nil on grant
	done  bool       // set under Manager.mu once resolved
}

// NewManager returns an empty lock table.
func NewManager() *Manager {
	return &Manager{
		locks: make(map[string]*lockState),
		held:  make(map[Owner]map[string]Mode),
	}
}

// Acquire blocks until owner holds key in at least the requested mode.
// Re-acquiring an already-held mode is a no-op; requesting Exclusive while
// holding Shared performs an upgrade. It returns ErrDeadlock if waiting
// would create a wait-for cycle, ctx.Err() if the context is cancelled
// while waiting, or ErrClosed if the manager shuts down.
func (m *Manager) Acquire(ctx context.Context, owner Owner, key string, mode Mode) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	ls := m.locks[key]
	if ls == nil {
		ls = &lockState{holders: make(map[Owner]Mode)}
		m.locks[key] = ls
	}

	if cur, ok := ls.holders[owner]; ok && cur >= mode {
		m.mu.Unlock()
		return nil // already held in a sufficient mode
	}

	if m.grantableLocked(ls, owner, mode) {
		m.grantLocked(ls, key, owner, mode)
		m.mu.Unlock()
		return nil
	}

	w := &waiter{owner: owner, mode: mode, ready: make(chan error, 1)}
	// Upgrades jump the queue: they already hold the lock and queued
	// requests behind them can never be granted first anyway.
	if _, upgrading := ls.holders[owner]; upgrading {
		ls.queue = append([]*waiter{w}, ls.queue...)
	} else {
		ls.queue = append(ls.queue, w)
	}

	if m.wouldDeadlockLocked(owner) {
		m.removeWaiterLocked(ls, w)
		m.mu.Unlock()
		return ErrDeadlock
	}
	m.mu.Unlock()

	select {
	case err := <-w.ready:
		return err
	case <-ctx.Done():
		return m.abandonWait(ls, w, ctx.Err())
	}
}

// abandonWait withdraws w from the queue after a cancellation, unless
// the grant raced the wakeup — then the lock is kept.
func (m *Manager) abandonWait(ls *lockState, w *waiter, reason error) error {
	m.mu.Lock()
	if w.done {
		// Granted concurrently with the cancel; keep the lock (the
		// caller's rollback path releases it if the transaction dies).
		m.mu.Unlock()
		return <-w.ready
	}
	m.removeWaiterLocked(ls, w)
	m.mu.Unlock()
	return reason
}

// TryAcquire acquires without blocking, reporting whether it succeeded.
func (m *Manager) TryAcquire(owner Owner, key string, mode Mode) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	ls := m.locks[key]
	if ls == nil {
		ls = &lockState{holders: make(map[Owner]Mode)}
		m.locks[key] = ls
	}
	if cur, ok := ls.holders[owner]; ok && cur >= mode {
		return true
	}
	if !m.grantableLocked(ls, owner, mode) {
		return false
	}
	m.grantLocked(ls, key, owner, mode)
	return true
}

// ReleaseAll releases every lock held by owner and wakes newly grantable
// waiters. Strict 2PL releases everything at commit/abort.
func (m *Manager) ReleaseAll(owner Owner) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for key := range m.held[owner] {
		ls := m.locks[key]
		delete(ls.holders, owner)
		m.pumpLocked(ls, key)
		m.maybeGCLocked(key, ls)
	}
	delete(m.held, owner)
}

// Close fails all waiters with ErrClosed and rejects future acquisitions.
func (m *Manager) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	for _, ls := range m.locks {
		for _, w := range ls.queue {
			if !w.done {
				w.done = true
				//lint:ignore nolockedcalls ready is buffered(1) and written at most once per waiter, so this send can never block
				w.ready <- ErrClosed
			}
		}
		ls.queue = nil
	}
}

// HeldModes returns a snapshot of the modes owner currently holds, keyed
// by lock key. It exists for tests and introspection.
func (m *Manager) HeldModes(owner Owner) map[string]Mode {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]Mode, len(m.held[owner]))
	for k, md := range m.held[owner] {
		out[k] = md
	}
	return out
}

// grantableLocked reports whether owner may take key in mode right now,
// respecting FIFO order for non-upgrade requests.
//
//tcache:holds lockmgr
func (m *Manager) grantableLocked(ls *lockState, owner Owner, mode Mode) bool {
	_, holding := ls.holders[owner]
	if !holding && len(ls.queue) > 0 {
		return false // FIFO: others are already waiting
	}
	for h, hm := range ls.holders {
		if h == owner {
			continue
		}
		if mode == Exclusive || hm == Exclusive {
			return false
		}
	}
	return true
}

//tcache:holds lockmgr
func (m *Manager) grantLocked(ls *lockState, key string, owner Owner, mode Mode) {
	ls.holders[owner] = mode
	hm := m.held[owner]
	if hm == nil {
		hm = make(map[string]Mode)
		m.held[owner] = hm
	}
	hm[key] = mode
}

// pumpLocked grants queued waiters that became compatible, in FIFO order,
// stopping at the first one that still conflicts.
//
//tcache:holds lockmgr
func (m *Manager) pumpLocked(ls *lockState, key string) {
	for len(ls.queue) > 0 {
		w := ls.queue[0]
		// Upgrades bypass the FIFO check in grantableLocked because the
		// waiter is already a holder.
		compatible := true
		for h, hm := range ls.holders {
			if h == w.owner {
				continue
			}
			if w.mode == Exclusive || hm == Exclusive {
				compatible = false
				break
			}
		}
		if !compatible {
			return
		}
		ls.queue = ls.queue[1:]
		m.grantLocked(ls, key, w.owner, w.mode)
		w.done = true
		//lint:ignore nolockedcalls ready is buffered(1) and written at most once per waiter, so this send can never block
		w.ready <- nil
	}
}

//tcache:holds lockmgr
func (m *Manager) removeWaiterLocked(ls *lockState, w *waiter) {
	for i, q := range ls.queue {
		if q == w {
			ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
			return
		}
	}
}

//tcache:holds lockmgr
func (m *Manager) maybeGCLocked(key string, ls *lockState) {
	if len(ls.holders) == 0 && len(ls.queue) == 0 {
		delete(m.locks, key)
	}
}

// wouldDeadlockLocked runs a DFS over the wait-for graph starting from
// start, returning true if start is reachable from itself. An edge A→B
// exists when A waits on a lock that B holds, or on a lock where B is
// queued ahead of A.
//
//tcache:holds lockmgr
func (m *Manager) wouldDeadlockLocked(start Owner) bool {
	adj := func(o Owner) []Owner {
		var out []Owner
		for _, ls := range m.locks {
			pos := -1
			var w *waiter
			for i, q := range ls.queue {
				if q.owner == o {
					pos, w = i, q
					break
				}
			}
			if w == nil {
				continue
			}
			for h := range ls.holders {
				if h != o && conflicts(w.mode, ls.holders[h]) {
					out = append(out, h)
				}
			}
			for i := 0; i < pos; i++ {
				if q := ls.queue[i]; q.owner != o {
					out = append(out, q.owner)
				}
			}
		}
		return out
	}

	visited := make(map[Owner]bool)
	var stack []Owner
	stack = append(stack, adj(start)...)
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if o == start {
			return true
		}
		if visited[o] {
			continue
		}
		visited[o] = true
		stack = append(stack, adj(o)...)
	}
	return false
}

func conflicts(a, b Mode) bool {
	return a == Exclusive || b == Exclusive
}
