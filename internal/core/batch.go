package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"tcache/internal/kv"
)

// The two steps every read shares (collect, fill) work on per-key scratch
// the caller owns: out[i] receives what the cache or the backend produced
// for keys[i] and slots[i] what the pass knows about it. A slot's state
// starts as the key's shard index (≥ 0, "not visited yet") and ends as
// slotHit or slotMiss. In between, a key the cache could not serve holds
// pendingSlot(d, dup): d is its index in the list of keys to fetch, and
// dup marks a later occurrence of a key already on that list, whose
// lookup waits for the first occurrence's fill — where a sequence of
// single reads would do it.
type keySlot struct {
	state int32
	// hash is the key's hash, computed once per pass: it picks the shard
	// here and finds the key's row in the transaction record afterwards.
	hash uint64
	// depHash is the served entry's (entry.depHash): shared, read-only.
	depHash []uint64
}

const (
	slotHit  int32 = -1
	slotMiss int32 = -2
)

func pendingSlot(d int, dup bool) int32 {
	s := -3 - int32(2*d)
	if dup {
		s--
	}
	return s
}

// pendingOf decodes a pendingSlot; ok is false for any other state.
func pendingOf(s int32) (d int, dup, ok bool) {
	if s > -3 {
		return 0, false, false
	}
	p := int(-3 - s)
	return p >> 1, p&1 == 1, true
}

// warmSampleEvery is the 1-in-N rate at which each shard times a warm
// hit into Telemetry.ReadWarm; the first hit of every shard is sampled.
const warmSampleEvery = 64

// lookupLocked is the servable-entry check — the only one: it stores
// key's cached item in out (its dependency hashes in slot) and reports
// true if the cache may serve it under floor (present, within its TTL,
// not older than floor unless a fetch under that floor confirmed it),
// touching it in the eviction order. An expired entry is removed: left
// in place it would be pinned forever if the backend no longer has the
// key. An entry behind floor stays cached — the fill replaces it with
// something newer or confirms it, so a floor costs one fetch per raise,
// not one per read. Callers hold sh.mu.
//
//tcache:holds shard
func (c *Cache) lookupLocked(sh *cacheShard, key kv.Key, floor kv.Version, out *kv.Lookup, slot *keySlot) bool {
	// With c.tel nil (the default) no time stamp is taken at all; enabled,
	// one hit in warmSampleEvery pays two clock reads and two atomic adds.
	var start time.Time
	sample := c.tel != nil && sh.warmHits%warmSampleEvery == 0
	if sample {
		start = time.Now()
	}
	e, ok := sh.entries[key]
	switch {
	case !ok:
	case c.cfg.TTL > 0 && c.clk.Since(e.fetchedAt) >= c.cfg.TTL:
		sh.removeEntry(e)
		c.metrics.TTLExpiries.Add(1)
	case e.item.Version.Less(floor) && e.confirmed.Less(floor):
		c.metrics.FloorRefetches.Add(1)
	default:
		sh.ev.Touch(&e.h)
		if c.tel != nil {
			sh.warmHits++
			if sample {
				c.tel.ReadWarm.ObserveSince(start)
			}
		}
		out.Item, out.Found, slot.depHash = e.item, true, e.depHash
		return true
	}
	return false
}

// collect is the first step of a read: it groups keys by entry shard and
// takes each touched shard's lock once, serving what lookupLocked can and
// listing the rest — each distinct key once — in missing, for fill. With count set
// (non-transactional reads) the reads are counted on the shard here;
// transactional reads are counted by readPass as it validates them.
func (c *Cache) collect(keys []kv.Key, floor kv.Version, out []kv.Lookup, slots []keySlot, missing *keyTable, count bool) {
	for i, key := range keys {
		h := c.hash(key)
		slots[i] = keySlot{state: c.shardIndex(h), hash: h}
	}
	for i := range keys {
		si := slots[i].state
		if si < 0 {
			continue // visited with an earlier key of its shard
		}
		sh := c.shards[si]
		var reads, hits uint64
		sh.mu.Lock()
		for j := i; j < len(keys); j++ {
			slot := &slots[j]
			if slot.state != si {
				continue
			}
			key := keys[j]
			if d := missing.find(0, slot.hash, key); d >= 0 {
				slot.state = pendingSlot(int(d), true)
				continue
			}
			reads++
			if c.lookupLocked(sh, key, floor, &out[j], slot) {
				slot.state = slotHit
				hits++
			} else {
				slot.state = pendingSlot(int(missing.add(slot.hash, key)), false)
			}
		}
		if count {
			sh.hot.count(reads, hits)
		}
		sh.mu.Unlock()
	}
}

// fill is the second step of a read that collect could not serve whole:
// it fetches missing from the backend and resolves every pending key, in
// key order, inserting what was found. It returns the error the keys it
// could not resolve carry — a failed fetch (its first failure; keys
// fetched before it are filled) or ErrClosed.
func (c *Cache) fill(ctx context.Context, keys []kv.Key, floor kv.Version, out []kv.Lookup, slots []keySlot, missing []recRow, count bool) error {
	var start time.Time
	if c.tel != nil {
		start = time.Now()
	}
	var buf [batchInline]kv.Lookup
	lookups, err := c.fetchItems(ctx, missing, len(keys) > 1, buf[:0])
	if c.closed.Load() {
		return ErrClosed
	}
	filled := 0
	for i, key := range keys {
		slot := &slots[i]
		d, dup, pending := pendingOf(slot.state)
		if !pending || d >= len(lookups) {
			continue
		}
		lu, hits := lookups[d], uint64(0)
		sh := c.shards[c.shardIndex(slot.hash)]
		sh.mu.Lock()
		// A later occurrence of a key this batch already filled is an
		// ordinary lookup now: a hit, unless admission declined it.
		if dup && c.lookupLocked(sh, key, floor, &lu, slot) {
			hits = 1
		}
		if dup && count {
			sh.hot.count(1, hits)
		}
		if hits == 0 && lu.Found {
			filled++
			// A nil entry means the admission doorkeeper declined the key
			// (first sighting): the fetched item is served uncached —
			// for the caller, a served miss like any other.
			if e := c.insertShardLocked(sh, key, lu.Item); e != nil {
				lu.Item, slot.depHash = e.item, e.depHash
				if e.confirmed.Less(floor) {
					e.confirmed = floor
				}
			} else {
				slot.depHash = c.hashDeps(lu.Item.Deps)
			}
		}
		sh.mu.Unlock()
		out[i], slot.state = lu, slotMiss
		if hits == 1 {
			slot.state = slotHit
		}
	}
	if c.tel != nil && filled > 0 {
		// Each filled key's serving latency is the whole fetch + fill, so
		// they all record the same elapsed cold sample.
		cold := uint64(time.Since(start))
		for ; filled > 0; filled-- {
			c.tel.ReadCold.Observe(cold)
		}
	}
	return err
}

// fetchItems reads the missing keys from the backend: for a batch read,
// in one request when the backend batches (BatchPrefetches /
// BatchPrefetchedKeys count those requests and the keys they found); key
// by key — appending to buf — for a one-key read, a backend that does not
// batch, or a failed batch request. On a per-key failure it returns the
// lookups before the failing key with the error. A ctx cancelled during
// the batch request is returned as is, not counted as a backend error.
func (c *Cache) fetchItems(ctx context.Context, missing []recRow, batch bool, buf []kv.Lookup) ([]kv.Lookup, error) {
	if bb, ok := c.cfg.Backend.(BatchBackend); ok && batch {
		keys := make([]kv.Key, len(missing))
		for d := range missing {
			keys[d] = missing[d].key
		}
		lookups, err := bb.ReadItems(ctx, keys)
		if err == nil && len(lookups) != len(keys) {
			err = errors.New("tcache: batch backend returned mismatched lookup count")
		}
		if err == nil {
			c.metrics.BatchPrefetches.Add(1)
			for _, lu := range lookups {
				if lu.Found {
					c.metrics.BatchPrefetchedKeys.Add(1)
				}
			}
			return lookups, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		c.metrics.BackendErrors.Add(1)
	}
	for d := range missing {
		item, ok, err := c.cfg.Backend.ReadItem(ctx, missing[d].key)
		if err != nil {
			c.metrics.BackendErrors.Add(1)
			return buf, fmt.Errorf("tcache: backend read %q: %w", missing[d].key, err)
		}
		buf = append(buf, kv.Lookup{Item: item, Found: ok})
	}
	return buf, nil
}
