package core

import (
	"context"
	"fmt"
	"sync"

	"tcache/internal/kv"
)

// commitMarks maps each key a commit in flight (Commit) writes to the
// channel that commit closes when it is done; an update's read of a
// marked key waits for it (AwaitCommits). Only a party holding no marks
// ever waits — a read, or a claim before it marks — so waits cannot form
// a cycle. A claim checks cached versions under mu, so that checking and
// marking are one step:
//
//tcache:lockorder marks < shard
type commitMarks struct {
	mu   sync.Mutex //tcache:lockclass marks
	keys map[kv.Key]chan struct{}
}

// StaleRead is Commit's local conflict: the transaction read Key at a
// version older than Cached, the cache's, or read it absent. The database
// holds at least Cached, so it would refuse the commit too.
type StaleRead struct {
	Key    kv.Key
	Cached kv.Version
}

func (e *StaleRead) Error() string {
	return fmt.Sprintf("tcache: read of %q is stale: the cache holds %s", e.Key, e.Cached)
}

// AwaitCommits waits, bounded by ctx, until no commit of this cache in
// flight writes any of keys.
func (c *Cache) AwaitCommits(ctx context.Context, keys ...kv.Key) error {
	for {
		var done chan struct{}
		c.marks.mu.Lock()
		for i := 0; i < len(keys) && done == nil; i++ {
			done = c.marks.keys[keys[i]]
		}
		c.marks.mu.Unlock()
		if done == nil {
			return nil
		}
		if err := c.awaitMark(ctx, done); err != nil {
			return err
		}
	}
}

func (c *Cache) awaitMark(ctx context.Context, done chan struct{}) error {
	c.metrics.CommitWaits.Add(1)
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Commit commits an update transaction through commit, the backend's
// call, and installs its writes — or invalidates them, when the answer
// carries no dependency lists. First it claims the transaction's keys:
// it waits while any is marked, fails with a *StaleRead if the cache
// holds a read newer than observed, and otherwise marks the writes until
// Commit returns.
func (c *Cache) Commit(ctx context.Context, commit CommitFunc, reads []kv.ObservedRead, writes []kv.KeyValue) (kv.CommitResult, error) {
	done, err := c.claim(ctx, reads, writes)
	if err != nil {
		return kv.CommitResult{}, err
	}
	defer c.release(writes, done)
	res, err := commit(ctx, reads, writes)
	if err != nil {
		return res, err
	}
	install := len(res.Deps) == len(writes)
	for i, w := range writes {
		if install {
			c.Install(w.Key, kv.Item{Value: w.Value, Version: res.Version, Deps: res.Deps[i]})
		} else {
			c.Invalidate(w.Key, res.Version)
		}
	}
	return res, nil
}

func (c *Cache) claim(ctx context.Context, reads []kv.ObservedRead, writes []kv.KeyValue) (chan struct{}, error) {
	for {
		c.marks.mu.Lock()
		done := c.markedLocked(reads, writes)
		if done != nil {
			c.marks.mu.Unlock()
			if err := c.awaitMark(ctx, done); err != nil {
				return nil, err
			}
			continue
		}
		for _, r := range reads {
			if v, ok := c.Cached(r.Key); ok && (!r.Found || r.Version.Less(v)) {
				c.marks.mu.Unlock()
				c.metrics.LocalConflicts.Add(1)
				return nil, &StaleRead{Key: r.Key, Cached: v}
			}
		}
		done = make(chan struct{})
		for _, w := range writes {
			c.marks.keys[w.Key] = done
		}
		c.marks.mu.Unlock()
		return done, nil
	}
}

// markedLocked returns the mark on the first marked key of a
// transaction, or nil. Callers hold marks.mu.
//
//tcache:holds marks
func (c *Cache) markedLocked(reads []kv.ObservedRead, writes []kv.KeyValue) chan struct{} {
	for _, r := range reads {
		if done := c.marks.keys[r.Key]; done != nil {
			return done
		}
	}
	for _, w := range writes {
		if done := c.marks.keys[w.Key]; done != nil {
			return done
		}
	}
	return nil
}

func (c *Cache) release(writes []kv.KeyValue, done chan struct{}) {
	c.marks.mu.Lock()
	for _, w := range writes {
		delete(c.marks.keys, w.Key)
	}
	c.marks.mu.Unlock()
	close(done)
}
