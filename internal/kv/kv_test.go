package kv

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVersionLess(t *testing.T) {
	tests := []struct {
		name string
		a, b Version
		want bool
	}{
		{"counter dominates", Version{1, 9}, Version{2, 0}, true},
		{"counter dominates reverse", Version{2, 0}, Version{1, 9}, false},
		{"node breaks ties", Version{3, 1}, Version{3, 2}, true},
		{"equal not less", Version{3, 1}, Version{3, 1}, false},
		{"zero less than any", Version{}, Version{0, 1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Less(tt.b); got != tt.want {
				t.Errorf("%v.Less(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestVersionLessIsStrictTotalOrder(t *testing.T) {
	// Property: for any a, b exactly one of a<b, b<a, a==b holds.
	f := func(ac, bc uint8, an, bn uint8) bool {
		a := Version{Counter: uint64(ac), Node: uint32(an)}
		b := Version{Counter: uint64(bc), Node: uint32(bn)}
		n := 0
		if a.Less(b) {
			n++
		}
		if b.Less(a) {
			n++
		}
		if a == b {
			n++
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVersionNext(t *testing.T) {
	v := Version{Counter: 5, Node: 1}
	o := Version{Counter: 9, Node: 0}
	got := v.Next(o, 7)
	want := Version{Counter: 10, Node: 7}
	if got != want {
		t.Fatalf("Next = %v, want %v", got, want)
	}
	if !v.Less(got) || !o.Less(got) {
		t.Fatalf("Next result %v not greater than both inputs", got)
	}
}

func TestVersionNextAlwaysGreater(t *testing.T) {
	f := func(vc, oc uint16, vn, on uint8, node uint8) bool {
		v := Version{Counter: uint64(vc), Node: uint32(vn)}
		o := Version{Counter: uint64(oc), Node: uint32(on)}
		n := v.Next(o, uint32(node))
		return v.Less(n) && o.Less(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVersionStringAndZero(t *testing.T) {
	if got := (Version{Counter: 17, Node: 3}).String(); got != "17.3" {
		t.Fatalf("String = %q, want %q", got, "17.3")
	}
	if !ZeroVersion.IsZero() {
		t.Fatal("ZeroVersion.IsZero() = false")
	}
	if (Version{Counter: 1}).IsZero() {
		t.Fatal("non-zero version reported zero")
	}
}

func TestMax(t *testing.T) {
	a := Version{Counter: 2}
	b := Version{Counter: 3}
	if got := Max(a, b); got != b {
		t.Fatalf("Max = %v, want %v", got, b)
	}
	if got := Max(b, a); got != b {
		t.Fatalf("Max = %v, want %v", got, b)
	}
}

func TestValueClone(t *testing.T) {
	v := Value("hello")
	c := v.Clone()
	c[0] = 'H'
	if string(v) != "hello" {
		t.Fatal("Clone did not copy the backing array")
	}
	if Value(nil).Clone() != nil {
		t.Fatal("Clone(nil) != nil")
	}
}

func TestItemClone(t *testing.T) {
	it := Item{
		Value:   Value("v"),
		Version: Version{Counter: 1},
		Deps:    DepList{{Key: "a", Version: Version{Counter: 1}}},
	}
	c := it.Clone()
	c.Deps[0].Key = "b"
	c.Value[0] = 'x'
	if it.Deps[0].Key != "a" || string(it.Value) != "v" {
		t.Fatal("Clone shares state with original")
	}
}

func randVersion(r *rand.Rand) Version {
	return Version{Counter: uint64(r.Intn(50)), Node: uint32(r.Intn(3))}
}

func TestShardDistribution(t *testing.T) {
	counts := make([]int, 4)
	for i := 0; i < 1000; i++ {
		counts[ShardIndex(Key(fmt.Sprintf("key-%d", i)), 4)]++
	}
	for s, c := range counts {
		if c < 100 {
			t.Fatalf("shard %d badly underloaded: %d/1000", s, c)
		}
	}
	for _, n := range []int{-1, 0, 1} {
		if got := ShardIndex("anything", n); got != 0 {
			t.Fatalf("ShardIndex(_, %d) = %d, want 0", n, got)
		}
	}
}
