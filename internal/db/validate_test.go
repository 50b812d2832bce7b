package db

import (
	"context"
	"errors"
	"testing"

	"tcache/internal/kv"
)

func seedOne(t *testing.T, d *DB, key kv.Key, val string) kv.Version {
	t.Helper()
	res, err := d.CommitUpdate(bg, nil, []kv.KeyValue{{Key: key, Value: kv.Value(val)}})
	if err != nil {
		t.Fatal(err)
	}
	return res.Version
}

func TestValidatedUpdateCommits(t *testing.T) {
	d := Open(Config{DepBound: 5})
	defer d.Close()
	ctx := context.Background()
	v1 := seedOne(t, d, "k", "v1")

	vt, err := d.ValidatedUpdate(ctx,
		[]kv.ObservedRead{{Key: "k", Version: v1, Found: true}, {Key: "absent", Found: false}},
		[]kv.KeyValue{{Key: "k", Value: kv.Value("v2")}, {Key: "k2", Value: kv.Value("x")}})
	if err != nil {
		t.Fatal(err)
	}
	if !v1.Less(vt) {
		t.Fatalf("commit version %s not after observed %s", vt, v1)
	}
	item, ok := d.Get("k")
	if !ok || string(item.Value) != "v2" || item.Version != vt {
		t.Fatalf("committed item = %q@%s, %v", item.Value, item.Version, ok)
	}
	if item, ok := d.Get("k2"); !ok || item.Version != vt {
		t.Fatal("second write of the atomic commit missing")
	}
}

func TestValidatedUpdateConflicts(t *testing.T) {
	d := Open(Config{DepBound: 5})
	defer d.Close()
	ctx := context.Background()
	v1 := seedOne(t, d, "k", "v1")
	v2 := seedOne(t, d, "k", "v2")

	t.Run("stale version", func(t *testing.T) {
		_, err := d.ValidatedUpdate(ctx,
			[]kv.ObservedRead{{Key: "k", Version: v1, Found: true}},
			[]kv.KeyValue{{Key: "k", Value: kv.Value("doomed")}})
		if !errors.Is(err, ErrConflict) {
			t.Fatalf("stale observation = %v, want ErrConflict", err)
		}
		var ce *ConflictError
		if !errors.As(err, &ce) || ce.Key != "k" || ce.Current != v2 || !ce.Found {
			t.Fatalf("conflict detail = %+v, want k@%s", ce, v2)
		}
		if item, _ := d.Get("k"); string(item.Value) != "v2" {
			t.Fatalf("rejected commit leaked a write: %q", item.Value)
		}
	})

	t.Run("presence mismatch", func(t *testing.T) {
		_, err := d.ValidatedUpdate(ctx,
			[]kv.ObservedRead{{Key: "k", Found: false}}, // observed missing, exists now
			[]kv.KeyValue{{Key: "other", Value: kv.Value("x")}})
		var ce *ConflictError
		if !errors.As(err, &ce) || !ce.Found {
			t.Fatalf("presence mismatch = %v", err)
		}
		if _, ok := d.Get("other"); ok {
			t.Fatal("rejected commit leaked a write")
		}
	})

	t.Run("locks released after conflict", func(t *testing.T) {
		// A fresh transaction must be able to lock the conflicting key
		// immediately: the rejected validation rolled everything back.
		seedOne(t, d, "k", "v3")
	})

	t.Run("cancelled ctx", func(t *testing.T) {
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		_, err := d.ValidatedUpdate(cctx,
			[]kv.ObservedRead{{Key: "k", Version: v2, Found: true}}, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled validated update = %v", err)
		}
	})
}

// TestCommitUpdateReportsStoredLists: the commit's answer carries, per
// write and in request order, the dependency list now stored with the
// key — inherited and pinned entries included — and a key written twice
// carries its list in both positions. The interactive path captures
// nothing.
func TestCommitUpdateReportsStoredLists(t *testing.T) {
	d := Open(Config{DepBound: 3})
	defer d.Close()
	ctx := context.Background()
	vr := seedOne(t, d, "read-only", "r")
	seedOne(t, d, "pinned", "p")
	d.Pin("a", "pinned")

	res, err := d.CommitUpdate(ctx,
		[]kv.ObservedRead{{Key: "read-only", Version: vr, Found: true}},
		[]kv.KeyValue{{Key: "a", Value: kv.Value("1")}, {Key: "b", Value: kv.Value("2")}, {Key: "a", Value: kv.Value("3")}})
	if err != nil || len(res.Deps) != 3 {
		t.Fatalf("CommitUpdate = %+v, %v", res, err)
	}
	for i, key := range []kv.Key{"a", "b", "a"} {
		stored, ok := d.Get(key)
		if !ok || stored.Version != res.Version || !stored.Deps.Equal(res.Deps[i]) {
			t.Errorf("write %d (%q) answered %s@%s, stored %s@%s", i, key, res.Deps[i], res.Version, stored.Deps, stored.Version)
		}
	}
	if _, ok := res.Deps[0].Lookup("pinned"); !ok {
		t.Errorf("a's list lost its pinned dependency: %s", res.Deps[0])
	}
	if v, ok := res.Deps[1].Lookup("read-only"); !ok || v != vr {
		t.Errorf("b's list lost the read-set dependency: %s", res.Deps[1])
	}
	if item, _ := d.Get("a"); string(item.Value) != "3" {
		t.Errorf("a = %q, want the last write of the set", item.Value)
	}

	if res, err := d.CommitUpdate(ctx, []kv.ObservedRead{{Key: "a", Version: res.Version, Found: true}}, nil); err != nil || len(res.Deps) != 0 || !res.Version.IsZero() {
		t.Errorf("write-less commit = %+v, %v", res, err)
	}
}
