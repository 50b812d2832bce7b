package kv

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refMergeDeps is the map-indexed, sort.SliceStable merge MergeDeps was
// first written as. It is the oracle the allocation-free merge must match
// entry for entry, order included.
func refMergeDeps(bound int, accesses []Access, positional bool) DepList {
	if bound == 0 {
		return nil
	}
	capHint := len(accesses)
	for _, a := range accesses {
		capHint += len(a.Deps)
	}
	merged := make(DepList, 0, capHint)
	index := make(map[Key]int, capHint)
	add := func(e DepEntry) {
		if i, ok := index[e.Key]; ok {
			if merged[i].Version.Less(e.Version) {
				merged[i].Version = e.Version
			}
			return
		}
		index[e.Key] = len(merged)
		merged = append(merged, e)
	}
	for _, a := range accesses {
		add(DepEntry{Key: a.Key, Version: a.Version})
	}
	inherited := make(DepList, 0, capHint-len(accesses))
	for _, a := range accesses {
		inherited = append(inherited, a.Deps...)
	}
	if !positional {
		sort.SliceStable(inherited, func(i, j int) bool {
			return inherited[j].Version.Less(inherited[i].Version)
		})
	}
	for _, e := range inherited {
		add(e)
	}
	if bound > 0 && len(merged) > bound {
		merged = merged[:bound:bound]
	}
	return merged
}

// randMergeInput draws an access set whose keys come from an alphabet of
// alphabet names, so keys repeat with differing versions, and whose
// versions come from a few counters and nodes, so equal-version ties are
// common and the sort's stability shows in the output.
func randMergeInput(r *rand.Rand, accesses, maxDeps, alphabet int) []Access {
	key := func() Key { return Key(fmt.Sprintf("k%02d", r.Intn(alphabet))) }
	ver := func() Version {
		return Version{Counter: uint64(r.Intn(6)), Node: uint32(r.Intn(2))}
	}
	out := make([]Access, accesses)
	for i := range out {
		var deps DepList
		if n := r.Intn(maxDeps + 1); n > 0 {
			deps = make(DepList, n)
			for j := range deps {
				deps[j] = DepEntry{Key: key(), Version: ver()}
			}
		}
		out[i] = Access{Key: key(), Version: ver(), Deps: deps}
	}
	return out
}

// TestMergeDepsMatchesReference is the differential oracle for both
// merge orders: small inputs (dedup by scan), inputs past the spill
// (dedup by map; many above 32 entries), duplicate keys with
// differing versions, equal-version ties, and every bound the database
// passes (0, Unbounded, and small truncations).
func TestMergeDepsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	bounds := []int{0, Unbounded, 1, 3, 5}
	spilled := 0
	for iter := 0; iter < 3000; iter++ {
		var in []Access
		switch iter % 3 {
		case 0: // small, heavy key reuse
			in = randMergeInput(r, r.Intn(6), 4, 6)
		case 1: // around the spill: up to 8 × (1+6) = 56 entries
			in = randMergeInput(r, 1+r.Intn(8), 6, 40)
		default: // well past the spill, few distinct keys
			in = randMergeInput(r, 6+r.Intn(6), 8, 12)
		}
		entries := len(in)
		for _, a := range in {
			entries += len(a.Deps)
		}
		if entries > 32 {
			spilled++
		}
		for _, bound := range bounds {
			for _, positional := range []bool{false, true} {
				want := refMergeDeps(bound, in, positional)
				var got DepList
				if positional {
					got = MergeDepsPositional(bound, in)
				} else {
					got = MergeDeps(bound, in)
				}
				if !got.Equal(want) || (got == nil) != (want == nil) {
					t.Fatalf("iter %d bound %d positional %v:\n in   %v\n got  %v\n want %v",
						iter, bound, positional, in, got, want)
				}
			}
		}
	}
	if spilled < 500 {
		t.Fatalf("only %d of 3000 inputs had more than 32 entries", spilled)
	}
}

// TestMergeDepsAllocs gates the commit-time merge of a 5-object
// transaction whose objects carry 3 dependencies each: the result and the
// inherited scratch, nothing per entry.
func TestMergeDepsAllocs(t *testing.T) {
	accesses := make([]Access, 5)
	for i := range accesses {
		deps := make(DepList, 3)
		for j := range deps {
			deps[j] = DepEntry{Key: Key(fmt.Sprintf("d%d-%d", i, j)), Version: Version{Counter: uint64(10*i + j)}}
		}
		accesses[i] = Access{Key: Key(fmt.Sprintf("o%d", i)), Version: Version{Counter: 100}, Deps: deps}
	}
	for _, merge := range []func(int, []Access) DepList{MergeDeps, MergeDepsPositional} {
		if n := testing.AllocsPerRun(200, func() { merge(6, accesses) }); n > 2 {
			t.Fatalf("merge of 5 accesses × 3 deps allocates %v times, want ≤ 2", n)
		}
	}
}
