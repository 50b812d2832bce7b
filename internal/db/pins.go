package db

import (
	"sync"

	"tcache/internal/kv"
)

// pinSet implements the paper's §VII second future direction: "the
// application could explicitly inform the cache of relevant object
// dependencies, and those could then be treated as more important and
// retained, while other less important ones are managed by some other
// policy such as LRU." The canonical example is a web album whose
// pictures must always carry a dependency on the album's ACL object.
//
// A pinned dependency (owner → dep) is force-included in owner's stored
// dependency list at every commit that writes owner, carrying dep's
// current committed version, and is never truncated away.
type pinSet struct {
	mu   sync.RWMutex
	pins map[kv.Key][]kv.Key
}

func (p *pinSet) pin(owner kv.Key, deps ...kv.Key) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pins == nil {
		p.pins = make(map[kv.Key][]kv.Key)
	}
	cur := p.pins[owner]
	for _, d := range deps {
		if d == owner || containsKey(cur, d) {
			continue
		}
		cur = append(cur, d)
	}
	p.pins[owner] = cur
}

func (p *pinSet) unpin(owner kv.Key, deps ...kv.Key) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := p.pins[owner]
	out := cur[:0]
	for _, c := range cur {
		if !containsKey(deps, c) {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		delete(p.pins, owner)
		return
	}
	p.pins[owner] = out
}

func (p *pinSet) get(owner kv.Key) []kv.Key {
	p.mu.RLock()
	defer p.mu.RUnlock()
	cur := p.pins[owner]
	if len(cur) == 0 {
		return nil
	}
	out := make([]kv.Key, len(cur))
	copy(out, cur)
	return out
}

func containsKey(xs []kv.Key, k kv.Key) bool {
	for _, x := range xs {
		if x == k {
			return true
		}
	}
	return false
}

// Pin declares that owner's stored dependency list must always retain an
// entry for each of deps (at the dependency's current committed version),
// regardless of the LRU bound (§VII). Self-pins are ignored.
func (d *DB) Pin(owner kv.Key, deps ...kv.Key) {
	d.pinned.pin(owner, deps...)
}

// Unpin removes previously pinned dependencies of owner.
func (d *DB) Unpin(owner kv.Key, deps ...kv.Key) {
	d.pinned.unpin(owner, deps...)
}

// PinnedDeps returns the pinned dependency keys of owner (for tests and
// introspection).
func (d *DB) PinnedDeps(owner kv.Key) []kv.Key {
	return d.pinned.get(owner)
}

// boundFor resolves the dependency-list bound for key.
func (d *DB) boundFor(key kv.Key) int {
	if d.cfg.DepBoundFor != nil {
		return d.cfg.DepBoundFor(key)
	}
	return d.cfg.DepBound
}

// composeDeps builds the final stored dependency list for written object
// key from the transaction's full merged list: pinned dependencies first
// (force-included at their current committed versions, never truncated),
// then the remaining entries, truncated to key's bound. A pin the
// committing transaction t touched carries its version in the commit at
// vt. Called under commitMu, so store version lookups are stable.
func (d *DB) composeDeps(key kv.Key, full kv.DepList, t *txn, vt kv.Version) kv.DepList {
	bound := d.boundFor(key)
	pins := d.pinned.get(key)
	if len(pins) == 0 {
		return full.WithoutKey(key, bound)
	}
	rest := full.WithoutKey(key, kv.Unbounded)

	out := make(kv.DepList, 0, len(pins)+len(rest))
	for _, p := range pins {
		ver, ok := t.accessVersion(p, vt)
		if !ok {
			if fromList, found := rest.Lookup(p); found {
				ver, ok = fromList, true
			} else if stored, found := d.store.Version(p); found {
				ver, ok = stored, true
			}
		}
		if ok && !ver.IsZero() {
			out = append(out, kv.DepEntry{Key: p, Version: ver})
		}
	}
	pinnedCount := len(out)
	for _, e := range rest {
		if !containsKey(pins, e.Key) {
			out = append(out, e)
		}
	}
	if bound >= 0 {
		keep := bound
		if keep < pinnedCount {
			keep = pinnedCount // pins are never evicted
		}
		out = out.Truncate(keep)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
