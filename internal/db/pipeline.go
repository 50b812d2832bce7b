package db

import "sync"

// commitDoor sequences the apply half of the commit pipeline.
//
// The commit path splits in two so group commit can work: version
// minting and building the written items happen under commitMu, but
// the WAL append happens OUTSIDE it — that is where concurrent
// committers overlap and share fsyncs. The door restores total order afterwards: each
// committer takes a ticket while still under commitMu (so ticket order
// equals version order), appends concurrently, then waits for its turn
// to apply, run hooks, and emit invalidations. Observers therefore
// still see commits in exact version order, just as they did when the
// whole commit ran under commitMu.
//
// Correctness of the concurrent middle: key-ordered locks, taken before
// minting and held through apply, give concurrent committers disjoint
// write sets, so their applies commute; per-key log order still matches
// version order because a later writer of a key can only mint after the
// earlier writer released the key's exclusive lock, which happens after
// the earlier append.
//
// Tickets are issued only while holding commitMu, so the door mutex
// nests strictly inside it:
//
//tcache:lockorder commit < commitdoor
type commitDoor struct {
	mu   sync.Mutex //tcache:lockclass commitdoor
	cond *sync.Cond
	next uint64 // ticket currently allowed through the door
	tail uint64 // next ticket to issue
}

func newCommitDoor() *commitDoor {
	d := &commitDoor{}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// enter issues the next ticket. Callers must hold commitMu, which is
// what makes ticket order equal version-mint order.
func (c *commitDoor) enter() uint64 {
	c.mu.Lock()
	t := c.tail
	c.tail++
	c.mu.Unlock()
	return t
}

// wait blocks until every earlier ticket has exited.
func (c *commitDoor) wait(ticket uint64) {
	c.mu.Lock()
	for c.next != ticket {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// exit retires the caller's ticket (it must have been wait-ed through
// first) and admits the next one.
func (c *commitDoor) exit() {
	c.mu.Lock()
	c.next++
	c.mu.Unlock()
	c.cond.Broadcast()
}
