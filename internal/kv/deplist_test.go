package kv

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func v(c uint64) Version { return Version{Counter: c} }

func TestMergeDepsPaperExample(t *testing.T) {
	// §III-A: transaction t with version vt touches o1 and o2. o1's new
	// list starts with its own prior deps... the paper's rendered list is
	// the union; we verify the essential postconditions: (o2, vt) present,
	// o2's inherited deps present, own accesses most recent.
	vt := v(100)
	o1 := Access{Key: "o1", Version: vt, Deps: DepList{{"a", v(1)}, {"b", v(2)}}}
	o2 := Access{Key: "o2", Version: vt, Deps: DepList{{"c", v(3)}, {"d", v(4)}}}
	got := MergeDeps(Unbounded, []Access{o1, o2})

	if gv, ok := got.Lookup("o2"); !ok || gv != vt {
		t.Fatalf("merged list lacks (o2, vt): %v", got)
	}
	for _, want := range []DepEntry{{"a", v(1)}, {"b", v(2)}, {"c", v(3)}, {"d", v(4)}} {
		if gv, ok := got.Lookup(want.Key); !ok || gv != want.Version {
			t.Fatalf("merged list lacks %v: %v", want, got)
		}
	}
	// Own accesses are the most recent entries.
	if got[0].Key != "o1" || got[1].Key != "o2" {
		t.Fatalf("own accesses not most-recent-first: %v", got)
	}
}

func TestMergeDepsDedupKeepsLargerVersion(t *testing.T) {
	a := Access{Key: "x", Version: v(5), Deps: DepList{{"y", v(9)}}}
	b := Access{Key: "y", Version: v(7), Deps: nil}
	got := MergeDeps(Unbounded, []Access{a, b})
	gv, ok := got.Lookup("y")
	if !ok {
		t.Fatalf("y missing: %v", got)
	}
	if gv != v(9) {
		t.Fatalf("y version = %v, want 9 (larger wins)", gv)
	}
	// y must keep its most-recent position (an own access, position 1).
	if got[1].Key != "y" {
		t.Fatalf("dedup moved y out of its most-recent slot: %v", got)
	}
}

func TestMergeDepsBoundTruncatesLeastRecent(t *testing.T) {
	accesses := []Access{
		{Key: "a", Version: v(1), Deps: DepList{{"old1", v(1)}, {"old2", v(1)}}},
		{Key: "b", Version: v(2), Deps: DepList{{"old3", v(1)}}},
	}
	got := MergeDeps(3, accesses)
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	// Own accesses survive; the oldest inherited deps are dropped.
	if got[0].Key != "a" || got[1].Key != "b" || got[2].Key != "old1" {
		t.Fatalf("truncation kept wrong entries: %v", got)
	}
}

func TestMergeDepsZeroBoundIsNil(t *testing.T) {
	got := MergeDeps(0, []Access{{Key: "a", Version: v(1)}})
	if got != nil {
		t.Fatalf("bound 0 should produce nil list, got %v", got)
	}
}

func TestMergeDepsEmptyInput(t *testing.T) {
	if got := MergeDeps(5, nil); len(got) != 0 {
		t.Fatalf("MergeDeps(5, nil) = %v, want empty", got)
	}
}

func TestMergeDepsProperties(t *testing.T) {
	// Properties over random access sets:
	//  1. no duplicate keys in the output
	//  2. every output entry's version >= every input mention of that key
	//  3. bounded output length
	//  4. with Unbounded, every mentioned key appears
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 500; iter++ {
		bound := r.Intn(7) - 1 // -1..5
		n := r.Intn(5) + 1
		accesses := make([]Access, n)
		mention := map[Key]Version{}
		note := func(k Key, ver Version) {
			if cur, ok := mention[k]; !ok || cur.Less(ver) {
				mention[k] = ver
			}
		}
		for i := range accesses {
			key := Key(fmt.Sprintf("k%d", r.Intn(8)))
			ver := randVersion(r)
			deps := make(DepList, r.Intn(4))
			for j := range deps {
				deps[j] = DepEntry{Key: Key(fmt.Sprintf("k%d", r.Intn(8))), Version: randVersion(r)}
				note(deps[j].Key, deps[j].Version)
			}
			accesses[i] = Access{Key: key, Version: ver, Deps: deps}
			note(key, ver)
		}
		got := MergeDeps(bound, accesses)

		seen := map[Key]bool{}
		for _, e := range got {
			if seen[e.Key] {
				t.Fatalf("iter %d: duplicate key %s in %v", iter, e.Key, got)
			}
			seen[e.Key] = true
			if e.Version.Less(mention[e.Key]) {
				t.Fatalf("iter %d: key %s kept version %v < max mention %v",
					iter, e.Key, e.Version, mention[e.Key])
			}
		}
		if bound >= 0 && len(got) > bound {
			t.Fatalf("iter %d: len %d exceeds bound %d", iter, len(got), bound)
		}
		if bound == Unbounded && len(got) != len(mention) {
			t.Fatalf("iter %d: unbounded merge lost keys: got %d, want %d",
				iter, len(got), len(mention))
		}
	}
}

func TestDepListLookup(t *testing.T) {
	l := DepList{{"a", v(1)}, {"b", v(2)}}
	if ver, ok := l.Lookup("b"); !ok || ver != v(2) {
		t.Fatalf("Lookup(b) = %v,%v", ver, ok)
	}
	if _, ok := l.Lookup("zzz"); ok {
		t.Fatal("Lookup(zzz) found a missing key")
	}
}

func TestDepListCloneIndependence(t *testing.T) {
	l := DepList{{"a", v(1)}}
	c := l.Clone()
	c[0].Version = v(9)
	if l[0].Version != v(1) {
		t.Fatal("Clone shares backing array")
	}
	if DepList(nil).Clone() != nil {
		t.Fatal("Clone(nil) != nil")
	}
}

func TestDepListWithoutKey(t *testing.T) {
	l := DepList{{"a", v(1)}, {"b", v(2)}, {"a", v(3)}}
	got := l.WithoutKey("a", Unbounded)
	if len(got) != 1 || got[0].Key != "b" {
		t.Fatalf("WithoutKey = %v", got)
	}
	if got := (DepList{{"a", v(1)}}).WithoutKey("a", Unbounded); got != nil {
		t.Fatalf("WithoutKey to empty should be nil, got %v", got)
	}
	// Cut to the bound, in a copy of just that size whether or not the
	// key was in the list.
	l = DepList{{"a", v(1)}, {"b", v(2)}, {"c", v(3)}, {"d", v(4)}}
	for _, c := range []struct {
		key   Key
		bound int
		want  string
	}{
		{"b", 2, "[a@1.0 c@3.0]"},
		{"x", 2, "[a@1.0 b@2.0]"},
		{"a", Unbounded, "[b@2.0 c@3.0 d@4.0]"},
		{"d", 3, "[a@1.0 b@2.0 c@3.0]"},
	} {
		got := l.WithoutKey(c.key, c.bound)
		if got.String() != c.want || cap(got) != len(got) {
			t.Errorf("WithoutKey(%q, %d) = %v (cap %d), want %s at cap %d", c.key, c.bound, got, cap(got), c.want, len(got))
		}
	}
	if got := l.WithoutKey("a", 0); got != nil {
		t.Fatalf("WithoutKey at bound 0 = %v, want nil", got)
	}
}

func TestDepListTruncate(t *testing.T) {
	l := DepList{{"a", v(1)}, {"b", v(2)}, {"c", v(3)}}
	if got := l.Truncate(2); len(got) != 2 || got[1].Key != "b" {
		t.Fatalf("Truncate(2) = %v", got)
	}
	if got := l.Truncate(Unbounded); len(got) != 3 {
		t.Fatalf("Truncate(Unbounded) = %v", got)
	}
	if got := l.Truncate(5); len(got) != 3 {
		t.Fatalf("Truncate(5) = %v", got)
	}
}

func TestDepListEqualAndNormalize(t *testing.T) {
	a := DepList{{"b", v(2)}, {"a", v(1)}}
	b := DepList{{"a", v(1)}, {"b", v(2)}}
	if a.Equal(b) {
		t.Fatal("order-sensitive Equal matched different orders")
	}
	if !a.Normalize().Equal(b.Normalize()) {
		t.Fatal("Normalize did not canonicalize order")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("Equal(clone) = false")
	}
}

func TestDepListStrings(t *testing.T) {
	l := DepList{{"a", v(1)}}
	if got := l.String(); got != "[a@1.0]" {
		t.Fatalf("String = %q", got)
	}
	if got := (DepEntry{"x", v(2)}).String(); got != "x@2.0" {
		t.Fatalf("DepEntry.String = %q", got)
	}
	keys := DepList{{"a", v(1)}, {"b", v(2)}}.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestMergeDepsQuickNoDuplicates(t *testing.T) {
	f := func(keys []uint8, bound uint8) bool {
		accesses := make([]Access, 0, len(keys))
		for i, k := range keys {
			accesses = append(accesses, Access{
				Key:     Key(fmt.Sprintf("k%d", k%16)),
				Version: v(uint64(i)),
			})
		}
		got := MergeDeps(int(bound%8), accesses)
		seen := map[Key]bool{}
		for _, e := range got {
			if seen[e.Key] {
				return false
			}
			seen[e.Key] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
