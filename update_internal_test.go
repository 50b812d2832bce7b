package tcache

import (
	"context"
	"errors"
	"testing"
)

// TestDBUpdateClosureErrorNotShadowed pins the rollback path: the
// closure's error comes back verbatim, and its buffered write is never
// committed.
func TestDBUpdateClosureErrorNotShadowed(t *testing.T) {
	d := OpenDB()
	defer d.Close()
	sentinel := errors.New("business-logic failure")
	err := d.Update(context.Background(), func(tx *Tx) error {
		if err := tx.Set("k", Value("doomed")); err != nil {
			return err
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Update = %v, want the closure's sentinel error", err)
	}
	if _, ok, _ := d.Get(context.Background(), "k"); ok {
		t.Fatal("rolled-back write is visible")
	}
}

// mapSnapshot is an in-memory snapshot source; every key it holds is at
// version 1.
type mapSnapshot map[Key]Value

func (m mapSnapshot) ReadItem(_ context.Context, key Key) (Item, bool, error) {
	v, ok := m[key]
	return Item{Value: v, Version: Version{Counter: 1}}, ok, nil
}

func (m mapSnapshot) ReadItems(ctx context.Context, keys []Key) ([]Lookup, error) {
	out := make([]Lookup, len(keys))
	for i, k := range keys {
		out[i].Item, out[i].Found, _ = m.ReadItem(ctx, k)
	}
	return out, nil
}

// TestOccTxSnapshotSemantics covers the optimistic transaction handle:
// read-your-buffered-writes inside the closure, first-read-wins repeat
// reads (a stable snapshot even if the source moves), and not-found
// observations recorded for validation.
func TestOccTxSnapshotSemantics(t *testing.T) {
	ctx := context.Background()
	version := Version{Counter: 1}
	source := mapSnapshot{"a": Value("a1")}
	o := &occTx{snap: source}
	tx := &Tx{h: o}

	// First read observes the source.
	if v, ok, err := tx.Get(ctx, "a"); err != nil || !ok || string(v) != "a1" {
		t.Fatalf("first read = %q, %v, %v", v, ok, err)
	}
	// The source moves on; the repeat read still serves the snapshot.
	source["a"] = Value("a2")
	if v, _, _ := tx.Get(ctx, "a"); string(v) != "a1" {
		t.Fatalf("repeat read = %q, want the first-read snapshot \"a1\"", v)
	}
	// Buffered writes are served back (read-your-writes in the closure).
	if err := tx.Set("a", Value("mine")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := tx.Get(ctx, "a"); !ok || string(v) != "mine" {
		t.Fatalf("read of buffered write = %q, %v", v, ok)
	}
	// A missing key is recorded as a not-found observation.
	if _, ok, err := tx.Get(ctx, "missing"); err != nil || ok {
		t.Fatalf("missing key = %v, %v", ok, err)
	}
	if len(o.reads) != 2 {
		t.Fatalf("observed reads = %d, want 2 (a, missing)", len(o.reads))
	}
	if o.reads[0].Key != "a" || o.reads[0].Version != version || !o.reads[0].Found {
		t.Fatalf("observation[0] = %+v", o.reads[0])
	}
	if o.reads[1].Key != "missing" || o.reads[1].Found {
		t.Fatalf("observation[1] = %+v", o.reads[1])
	}
	// The write buffer kept the last value per key, exactly once.
	if len(o.writes) != 1 || string(o.writes[0].Value) != "mine" {
		t.Fatalf("write buffer = %+v", o.writes)
	}
}

// TestOccTxReadsAhead covers what a retry fetched ahead of the closure:
// a key is served from it on the closure's first read — and only then
// becomes an observation the commit validates — while a key the retry's
// closure no longer reads is never validated, and GetMulti fetches only
// what is neither held nor fetched ahead.
func TestOccTxReadsAhead(t *testing.T) {
	ctx := context.Background()
	source := mapSnapshot{"a": Value("a-now"), "b": Value("b-now"), "c": Value("c-now")}
	o := &occTx{
		snap:      source,
		aheadKeys: []Key{"a", "b"},
		ahead:     []Lookup{{Item: Item{Value: Value("a-ahead"), Version: Version{Counter: 7}}, Found: true}, {}},
	}
	tx := &Tx{h: o}
	vals, err := tx.GetMulti(ctx, "c", "a", "c")
	if err != nil || string(vals[0]) != "c-now" || string(vals[1]) != "a-ahead" || string(vals[2]) != "c-now" {
		t.Fatalf("GetMulti = %q, %v", vals, err)
	}
	if len(o.reads) != 2 || o.reads[0].Key != "c" || o.reads[1] != (ObservedRead{Key: "a", Version: Version{Counter: 7}, Found: true}) {
		t.Fatalf("observations = %+v, want c (fetched) then a (from the read-ahead); b was never read", o.reads)
	}
	if _, found, err := tx.Get(ctx, "b"); err != nil || found {
		t.Fatalf("b, fetched ahead as missing = %v, %v", found, err)
	}
	if len(o.reads) != 3 || o.reads[2].Found {
		t.Fatalf("observations = %+v, want b recorded as not found", o.reads)
	}
}
