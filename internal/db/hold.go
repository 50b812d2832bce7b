package db

import (
	"context"
	"time"

	"tcache/internal/kv"
	"tcache/internal/lock"
)

// KeyHold is a test seam: one key's exclusive lock, held outside any
// transaction, so every update that touches the key queues behind it
// until Release. Tests use it to park commits mid-flight — and Queued to
// know they are parked — instead of sleeping and hoping.
type KeyHold struct {
	d   *DB
	key string
}

// HoldKey takes key's exclusive lock, waiting behind any current holder,
// and returns the hold.
func (d *DB) HoldKey(ctx context.Context, key kv.Key) (*KeyHold, error) {
	h := &KeyHold{d: d, key: string(key)}
	if err := d.locks.Acquire(ctx, h.key, lock.Exclusive); err != nil {
		return nil, err
	}
	return h, nil
}

// Queued returns once at least n updates wait for the held key, or with
// ctx's error.
func (h *KeyHold) Queued(ctx context.Context, n int) error {
	for h.d.locks.Waiting(h.key) < n {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// Release frees the key: the queued updates proceed in arrival order.
func (h *KeyHold) Release() { h.d.locks.Release(h.key, lock.Exclusive) }
