// Package lock implements the per-key lock table behind the database's
// update transactions: shared and exclusive modes, FIFO queuing, and
// waits bounded by the caller's ctx.
//
// The paper's backend is "a transactional key-value store with two-phase
// commit"; this lock manager is the concurrency-control half of that
// substrate. Two-phase commit exists there because its participants are
// separate machines; the database here is one participant, so a commit
// needs only these locks and one log record.
//
// The database takes every lock a transaction needs up front, each key
// once, in its final mode and in key order, and releases them together.
// Under that discipline the table needs neither upgrades nor deadlock
// detection: a waiter holds only keys smaller than the one it waits on,
// so it waits either for a holder that is itself waiting on a larger
// key, or for a waiter queued ahead of it on the same key, and no chain
// of waits can close into a cycle. Every wait ends in a grant, the
// caller's ctx, or Close.
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

// ErrClosed is returned when the manager is shut down while waiting.
var ErrClosed = errors.New("lock: manager closed")

// Owner identifies a lock-holding transaction.
type Owner uint64

// Manager is a lock table keyed by string keys. The zero value is not
// usable; construct with NewManager.
type Manager struct {
	mu     sync.Mutex //tcache:lockclass lockmgr
	locks  map[string]*lockState
	held   map[Owner][]string // reverse index for ReleaseAll
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
		held:  make(map[Owner][]string),
	}
}

// Acquire blocks until owner holds key in mode, behind every request
// already queued on key. Re-acquiring a key already held in the same or
// a stronger mode is a no-op; there are no upgrades, so asking for
// Exclusive while holding Shared is an error. It returns ctx.Err() if
// the context is cancelled while waiting, or ErrClosed if the manager
// shuts down.
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
	if cur, ok := ls.holders[owner]; ok {
		m.mu.Unlock()
		if cur < mode {
			return fmt.Errorf("lock: owner %d holds %q in mode %s and cannot upgrade", owner, key, cur)
		}
		return nil
	}
	if len(ls.queue) == 0 && compatible(ls, mode) {
		m.grantLocked(ls, key, owner, mode)
		m.mu.Unlock()
		return nil
	}
	w := &waiter{owner: owner, mode: mode, ready: make(chan error, 1)}
	ls.queue = append(ls.queue, w)
	m.mu.Unlock()

	select {
	case err := <-w.ready:
		return err
	case <-ctx.Done():
		return m.abandonWait(ls, key, w, ctx.Err())
	}
}

// abandonWait withdraws w from the queue after a cancellation, unless
// the grant raced the wakeup — then the lock is kept. Waiters queued
// behind w that w alone was holding back are granted at once.
func (m *Manager) abandonWait(ls *lockState, key string, w *waiter, reason error) error {
	m.mu.Lock()
	if w.done {
		// Granted concurrently with the cancel; keep the lock (the
		// caller's ReleaseAll frees it).
		m.mu.Unlock()
		return <-w.ready
	}
	for i, q := range ls.queue {
		if q == w {
			ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
			break
		}
	}
	m.pumpLocked(ls, key)
	m.maybeGCLocked(key, ls)
	m.mu.Unlock()
	return reason
}

// ReleaseAll releases every lock held by owner and wakes newly grantable
// waiters. A transaction releases everything at once, at commit or
// abort.
func (m *Manager) ReleaseAll(owner Owner) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, key := range m.held[owner] {
		ls := m.locks[key]
		delete(ls.holders, owner)
		m.pumpLocked(ls, key)
		m.maybeGCLocked(key, ls)
	}
	delete(m.held, owner)
}

// Waiting reports how many requests are queued on key. It is a test
// seam: it lets a test see a transaction parked behind a held lock.
func (m *Manager) Waiting(key string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ls := m.locks[key]; ls != nil {
		return len(ls.queue)
	}
	return 0
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
				//lint:ignore locks ready is buffered(1) and written at most once per waiter, so this send can never block
				w.ready <- ErrClosed
			}
		}
		ls.queue = nil
	}
}

// compatible reports whether mode can be granted beside ls's holders.
func compatible(ls *lockState, mode Mode) bool {
	for _, hm := range ls.holders {
		if mode == Exclusive || hm == Exclusive {
			return false
		}
	}
	return true
}

//tcache:holds lockmgr
func (m *Manager) grantLocked(ls *lockState, key string, owner Owner, mode Mode) {
	ls.holders[owner] = mode
	m.held[owner] = append(m.held[owner], key)
}

// pumpLocked grants queued waiters that became compatible, in FIFO order,
// stopping at the first one that still conflicts.
//
//tcache:holds lockmgr
func (m *Manager) pumpLocked(ls *lockState, key string) {
	for len(ls.queue) > 0 && compatible(ls, ls.queue[0].mode) {
		w := ls.queue[0]
		ls.queue = ls.queue[1:]
		m.grantLocked(ls, key, w.owner, w.mode)
		w.done = true
		//lint:ignore locks ready is buffered(1) and written at most once per waiter, so this send can never block
		w.ready <- nil
	}
}

//tcache:holds lockmgr
func (m *Manager) maybeGCLocked(key string, ls *lockState) {
	if len(ls.holders) == 0 && len(ls.queue) == 0 {
		delete(m.locks, key)
	}
}
