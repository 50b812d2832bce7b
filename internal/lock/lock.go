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
// once, in its final mode and in key order, and releases by key and
// mode each one it got. So the table knows no owners: a key's state is
// a holder count and a FIFO queue, recycled once the key is free.
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
	"slices"
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

// Manager is a lock table keyed by string keys. The zero value is not
// usable; construct with NewManager.
type Manager struct {
	mu     sync.Mutex //tcache:lockclass lockmgr
	locks  map[string]*lockState
	free   []*lockState // states of keys no one holds or waits on, for reuse
	closed bool
}

// lockState is one key's lock and the requests queued behind it.
type lockState struct {
	holders int // how many hold it shared, or -1 while one holds it exclusive
	queue   []*waiter
}

type waiter struct {
	mode  Mode
	ready chan error // buffered(1); receives nil on grant
	done  bool       // set under Manager.mu once resolved
}

// NewManager returns an empty lock table.
func NewManager() *Manager {
	return &Manager{locks: make(map[string]*lockState)}
}

// Acquire blocks until the caller holds key in mode, behind every
// request already queued on key; one Release of the same key and mode
// undoes it. It returns ctx.Err() if the context is cancelled while
// waiting, or ErrClosed if the manager shuts down.
func (m *Manager) Acquire(ctx context.Context, key string, mode Mode) error {
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
		if n := len(m.free); n > 0 {
			ls, m.free = m.free[n-1], m.free[:n-1]
		} else {
			ls = &lockState{}
		}
		m.locks[key] = ls
	}
	if len(ls.queue) == 0 && ls.grant(mode) {
		m.mu.Unlock()
		return nil
	}
	w := &waiter{mode: mode, ready: make(chan error, 1)}
	ls.queue = append(ls.queue, w)
	m.mu.Unlock()

	select {
	case err := <-w.ready:
		return err
	case <-ctx.Done():
	}
	// Withdraw from the queue, unless the grant raced the cancel: then
	// the lock is kept, and the caller's Release frees it.
	m.mu.Lock()
	defer m.mu.Unlock()
	if w.done {
		return <-w.ready
	}
	ls.queue = slices.DeleteFunc(ls.queue, func(q *waiter) bool { return q == w })
	m.settleLocked(key, ls)
	return ctx.Err()
}

// Release frees one hold of key in mode.
func (m *Manager) Release(key string, mode Mode) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ls := m.locks[key]
	if ls == nil || ls.holders == 0 || (ls.holders < 0) != (mode == Exclusive) {
		panic(fmt.Sprintf("lock: release of %q in mode %s, which is not held", key, mode))
	}
	ls.holders = max(ls.holders-1, 0) // an exclusive hold (-1) ends at 0 too
	m.settleLocked(key, ls)
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
		for _, w := range ls.queue { // a queued waiter is never done
			w.done = true
			//lint:ignore locks ready is buffered(1) and written at most once per waiter, so this send can never block
			w.ready <- ErrClosed
		}
		ls.queue = nil
	}
}

// grant takes the lock in mode if that is compatible with its holders.
func (ls *lockState) grant(mode Mode) bool {
	switch {
	case ls.holders < 0 || (mode == Exclusive && ls.holders > 0):
		return false
	case mode == Exclusive:
		ls.holders = -1
	default:
		ls.holders++
	}
	return true
}

// settleLocked grants the queued waiters that became compatible, in
// FIFO order, stopping at the first one that still conflicts; a key no
// one holds or waits on goes to the free list.
//
//tcache:holds lockmgr
func (m *Manager) settleLocked(key string, ls *lockState) {
	for len(ls.queue) > 0 && ls.grant(ls.queue[0].mode) {
		w := ls.queue[0]
		ls.queue[0], ls.queue = nil, ls.queue[1:]
		w.done = true
		//lint:ignore locks ready is buffered(1) and written at most once per waiter, so this send can never block
		w.ready <- nil
	}
	if ls.holders == 0 && len(ls.queue) == 0 {
		delete(m.locks, key)
		ls.queue = ls.queue[:0]
		m.free = append(m.free, ls)
	}
}
