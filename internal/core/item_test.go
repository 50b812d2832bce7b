package core

import (
	"context"
	"sync/atomic"
	"testing"

	"tcache/internal/kv"
)

// itemBackend is a scriptable Backend for floor tests.
type itemBackend struct {
	items      map[kv.Key]kv.Item
	reads      atomic.Int64
	batchReads atomic.Int64
}

func (b *itemBackend) ReadItem(ctx context.Context, key kv.Key) (kv.Item, bool, error) {
	b.reads.Add(1)
	it, ok := b.items[key]
	return it, ok, nil
}

func (b *itemBackend) ReadItems(ctx context.Context, keys []kv.Key) ([]kv.Lookup, error) {
	b.batchReads.Add(1)
	out := make([]kv.Lookup, len(keys))
	for i, k := range keys {
		it, ok := b.items[k]
		out[i] = kv.Lookup{Item: it, Found: ok}
	}
	return out, nil
}

func v(c uint64) kv.Version { return kv.Version{Counter: c} }

func TestGetItemServesCachedMetadata(t *testing.T) {
	be := &itemBackend{items: map[kv.Key]kv.Item{
		"a": {Value: kv.Value("x"), Version: v(3), Deps: kv.DepList{kv.Dep("b", v(2))}},
	}}
	c, err := New(Config{Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	it, ok, err := c.GetItem(context.Background(), "a", kv.Version{})
	if err != nil || !ok {
		t.Fatalf("GetItem = %v %v", ok, err)
	}
	if it.Version != v(3) || len(it.Deps) != 1 || it.Deps[0].Key.Value() != "b" {
		t.Fatalf("item metadata lost: %+v", it)
	}
	if got := be.reads.Load(); got != 1 {
		t.Fatalf("backend reads = %d, want 1", got)
	}
	// Second read is a hit: no backend traffic.
	if _, ok, err := c.GetItem(context.Background(), "a", kv.Version{}); err != nil || !ok {
		t.Fatal(err)
	}
	if got := be.reads.Load(); got != 1 {
		t.Fatalf("hit went to the backend (reads = %d)", got)
	}
}

func TestGetItemFloorForcesRefetch(t *testing.T) {
	be := &itemBackend{items: map[kv.Key]kv.Item{
		"a": {Value: kv.Value("old"), Version: v(1)},
	}}
	c, err := New(Config{Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, _, err := c.GetItem(context.Background(), "a", kv.Version{}); err != nil {
		t.Fatal(err)
	}
	// The database moves on; this cache misses the invalidation.
	be.items["a"] = kv.Item{Value: kv.Value("new"), Version: v(5)}

	// Unfloored read serves the stale cached copy (normal T-Cache
	// laziness)...
	it, _, err := c.GetItem(context.Background(), "a", kv.Version{})
	if err != nil {
		t.Fatal(err)
	}
	if it.Version != v(1) {
		t.Fatalf("unfloored read = %s, want cached v1", it.Version)
	}
	// ...but a floored read must refetch and serve the fresh item.
	it, _, err = c.GetItem(context.Background(), "a", v(5))
	if err != nil {
		t.Fatal(err)
	}
	if it.Version != v(5) || string(it.Value) != "new" {
		t.Fatalf("floored read = %s %q, want v5 \"new\"", it.Version, it.Value)
	}
	if got := c.Metrics().FloorRefetches; got != 1 {
		t.Fatalf("FloorRefetches = %d, want 1", got)
	}
	// The refetched item replaced the cached copy: the next unfloored
	// read serves v5 without backend traffic.
	reads := be.reads.Load()
	it, _, err = c.GetItem(context.Background(), "a", kv.Version{})
	if err != nil {
		t.Fatal(err)
	}
	if it.Version != v(5) || be.reads.Load() != reads {
		t.Fatalf("refetch was not cached (version %s, reads %d→%d)", it.Version, reads, be.reads.Load())
	}
}

func TestGetItemFloorInflatedServesBackendCurrent(t *testing.T) {
	// A floor above the key's true current version (raised by a
	// neighbouring key's commit in the same range) must not error or
	// loop: the backend's answer is authoritative and served as is.
	be := &itemBackend{items: map[kv.Key]kv.Item{
		"a": {Value: kv.Value("x"), Version: v(2)},
	}}
	c, err := New(Config{Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.GetItem(context.Background(), "a", kv.Version{}); err != nil {
		t.Fatal(err)
	}
	it, ok, err := c.GetItem(context.Background(), "a", v(9))
	if err != nil || !ok {
		t.Fatalf("inflated floor: %v %v", ok, err)
	}
	if it.Version != v(2) {
		t.Fatalf("inflated floor served %s, want the backend's current v2", it.Version)
	}
}

func TestGetItemsBatchesMisses(t *testing.T) {
	be := &itemBackend{items: map[kv.Key]kv.Item{
		"a": {Value: kv.Value("1"), Version: v(1)},
		"b": {Value: kv.Value("2"), Version: v(2)},
		"c": {Value: kv.Value("3"), Version: v(3)},
	}}
	c, err := New(Config{Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Warm "b" only; the batch must serve it from cache and fetch the
	// rest (plus the absent key) in ONE backend batch.
	if _, _, err := c.GetItem(context.Background(), "b", kv.Version{}); err != nil {
		t.Fatal(err)
	}
	lookups, err := c.GetItems(context.Background(), []kv.Key{"a", "b", "missing", "c"}, kv.Version{})
	if err != nil {
		t.Fatal(err)
	}
	if len(lookups) != 4 {
		t.Fatalf("lookups = %d, want 4", len(lookups))
	}
	for i, want := range []struct {
		found bool
		ver   kv.Version
	}{{true, v(1)}, {true, v(2)}, {false, kv.Version{}}, {true, v(3)}} {
		if lookups[i].Found != want.found || lookups[i].Item.Version != want.ver {
			t.Fatalf("lookup[%d] = %+v, want found=%v ver=%s", i, lookups[i], want.found, want.ver)
		}
	}
	if got := be.batchReads.Load(); got != 1 {
		t.Fatalf("batch backend reads = %d, want 1", got)
	}
	// Fetched keys are now cached.
	reads := be.reads.Load() + be.batchReads.Load()
	if _, _, err := c.GetItem(context.Background(), "a", kv.Version{}); err != nil {
		t.Fatal(err)
	}
	if be.reads.Load()+be.batchReads.Load() != reads {
		t.Fatal("batch-fetched key missed the cache")
	}
}

func TestGetItemsFloorSelective(t *testing.T) {
	be := &itemBackend{items: map[kv.Key]kv.Item{
		"a": {Value: kv.Value("1"), Version: v(1)},
		"b": {Value: kv.Value("9"), Version: v(9)},
	}}
	c, err := New(Config{Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.GetItems(context.Background(), []kv.Key{"a", "b"}, kv.Version{}); err != nil {
		t.Fatal(err)
	}
	// Floor v5: "a"@1 must refetch, "b"@9 serves from cache.
	be.items["a"] = kv.Item{Value: kv.Value("5"), Version: v(5)}
	lookups, err := c.GetItems(context.Background(), []kv.Key{"a", "b"}, v(5))
	if err != nil {
		t.Fatal(err)
	}
	if lookups[0].Item.Version != v(5) {
		t.Fatalf("floored batch served a@%s, want v5", lookups[0].Item.Version)
	}
	if lookups[1].Item.Version != v(9) {
		t.Fatalf("b = %s, want cached v9", lookups[1].Item.Version)
	}
	if got := c.Metrics().FloorRefetches; got != 1 {
		t.Fatalf("FloorRefetches = %d, want 1 (only the stale key)", got)
	}
}
