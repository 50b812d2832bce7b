package cluster_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tcache/internal/cluster"
	"tcache/internal/kv"
)

// diffRig is a loopback fleet over a seeded data set — keys committed a
// seeded number of times (so versions and dependency lists differ),
// some never written — with two routers on it: batch answers
// ReadItems, single answers the same keys one ReadItem at a time.
type diffRig struct {
	*rig
	seed          int64
	rng           *rand.Rand
	keys          []kv.Key
	batch, single *cluster.Router
}

func newDiffRig(t *testing.T, seed int64, nodes int, cfg func([]string) cluster.Config) *diffRig {
	t.Helper()
	d := &diffRig{rig: newRig(t, nodes), seed: seed, rng: rand.New(rand.NewSource(seed)), keys: testKeys(96)}
	for round := 0; round < 6; round++ {
		var batch []kv.Key
		for _, k := range d.keys[:80] { // the last 16 stay unwritten
			if d.rng.Intn(3) == 0 {
				batch = append(batch, k)
			}
		}
		d.set(batch, fmt.Sprintf("seed%d-round%d", seed, round))
	}
	for _, r := range []**cluster.Router{&d.batch, &d.single} {
		router, err := cluster.NewRouter(bg, cfg(d.addrs))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		t.Cleanup(router.Close)
		*r = router
	}
	return d
}

// draw returns a seeded batch: 1 to 40 keys, repeats allowed.
func (d *diffRig) draw() []kv.Key {
	keys := make([]kv.Key, 1+d.rng.Intn(40))
	for i := range keys {
		keys[i] = d.keys[d.rng.Intn(len(d.keys))]
	}
	return keys
}

// check reads keys through both routers and fails on any difference in
// an answer (value, version, dependency list, Found) or, with marks, in
// the high-water marks the reads raised. It reports whether both reads
// were answered at all.
func (d *diffRig) check(t *testing.T, trial int, keys []kv.Key, marks bool) bool {
	t.Helper()
	got, err := d.batch.ReadItems(bg, keys)
	if err != nil {
		t.Logf("seed %d trial %d: ReadItems: %v", d.seed, trial, err)
		return false
	}
	if len(got) != len(keys) {
		t.Fatalf("seed %d trial %d: %d lookups for %d keys", d.seed, trial, len(got), len(keys))
	}
	for i, k := range keys {
		item, found, err := d.single.ReadItem(bg, k)
		if err != nil {
			t.Logf("seed %d trial %d: ReadItem(%s): %v", d.seed, trial, k, err)
			return false
		}
		if want := (kv.Lookup{Item: item, Found: found}); !reflect.DeepEqual(got[i], want) {
			t.Fatalf("seed %d trial %d key %d %q: ReadItems = %+v, ReadItem = %+v", d.seed, trial, i, k, got[i], want)
		}
	}
	if !marks {
		return true
	}
	bm, sm := d.batch.HighWaterMarks(), d.single.HighWaterMarks()
	for rg := range bm {
		if bm[rg] != sm[rg] {
			t.Fatalf("seed %d trial %d: range %d high-water mark: ReadItems raised %s, ReadItem %s", d.seed, trial, rg, bm[rg], sm[rg])
		}
	}
	return true
}

// TestReadItemsMatchesPerKeyReads: a batch read split over the fleet
// returns, position by position, exactly what reading each key alone
// returns, and leaves the same range marks behind.
func TestReadItemsMatchesPerKeyReads(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			d := newDiffRig(t, seed, 3, fastConfig)
			for trial := 0; trial < 60; trial++ {
				if !d.check(t, trial, d.draw(), true) {
					t.Fatalf("seed %d trial %d: read failed on a healthy fleet", seed, trial)
				}
			}
		})
	}
}
