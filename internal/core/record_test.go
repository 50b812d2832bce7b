package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tcache/internal/kv"
)

// refRecord is the §III-B transaction record at its plainest — two maps
// and a list — against which the hashed table is checked.
type refRecord struct {
	read, expected map[kv.Key]kv.Version
	order          []ReadVersion
}

func (r *refRecord) check(key kv.Key, item kv.Item) (violation, bool) {
	if exp, ok := r.expected[key]; ok && item.Version.Less(exp) {
		return violation{equation: 2, staleKey: key, staleBelow: exp}, true
	}
	if prev, ok := r.read[key]; ok && prev.Less(item.Version) {
		return violation{equation: 1, staleKey: key, staleBelow: item.Version}, true
	}
	for _, d := range item.Deps {
		if prev, ok := r.read[d.Key]; ok && prev.Less(d.Version) {
			return violation{equation: 1, staleKey: d.Key, staleBelow: d.Version}, true
		}
	}
	return violation{}, false
}

func (r *refRecord) record(key kv.Key, item kv.Item) {
	if _, ok := r.read[key]; !ok {
		r.read[key] = item.Version
		r.order = append(r.order, ReadVersion{Key: key, Version: item.Version})
	}
	for _, d := range append(kv.DepList{{Key: key, Version: item.Version}}, item.Deps...) {
		if exp, ok := r.expected[d.Key]; !ok || exp.Less(d.Version) {
			r.expected[d.Key] = d.Version
		}
	}
}

// newTxnRecord returns an empty record, as a fresh Txn holds.
func newTxnRecord() *txnRecord {
	rec := new(txnRecord)
	rec.reset()
	return rec
}

// contents flattens a txnRecord into refRecord's shape.
func (rec *txnRecord) contents() *refRecord {
	out := &refRecord{read: map[kv.Key]kv.Version{}, expected: map[kv.Key]kv.Version{}, order: rec.readSet()}
	for _, row := range rec.rows {
		if _, dup := out.expected[row.key]; dup {
			panic(fmt.Sprintf("two rows for key %q", row.key))
		}
		out.expected[row.key] = row.expected
		if row.seq > 0 {
			out.read[row.key] = row.read
		}
	}
	return out
}

// TestAdmitMatchesMapReference drives random read histories — repeated
// keys, dependency lists naming keys read earlier, later, never, twice, or
// the key itself, versions moving both ways, histories past
// txnRecordSpill — through admit and through refRecord: same verdict,
// same record, same read order, at every step. hash is the key hash the
// table is given; the collision test reuses the histories with a bad one.
func TestAdmitMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		admitHistory(t, seed, hashKey)
	}
}

func admitHistory(t *testing.T, seed int64, hash func(kv.Key) uint64) {
	rng := rand.New(rand.NewSource(seed))
	// A third of the histories outgrow the inline rows, a third the spill
	// threshold as well.
	universe := []int{6, 20, 3 * txnRecordSpill}[seed%3]
	keys := make([]kv.Key, universe)
	for i := range keys {
		keys[i] = kv.Key(fmt.Sprintf("obj-%06d", i)) // same length, same prefix: the workload's shape
	}
	// Versions drift upwards with a little noise, so histories are mostly
	// consistent and trip both equations now and then.
	version := func(step int) kv.Version {
		return kv.Version{Counter: uint64(1 + step/8 + rng.Intn(3)), Node: uint32(rng.Intn(2))}
	}
	rec, ref := newTxnRecord(), &refRecord{read: map[kv.Key]kv.Version{}, expected: map[kv.Key]kv.Version{}}
	var eq [3]int
	steps := 4 * universe
	for step := 0; step < steps; step++ {
		key := keys[rng.Intn(universe)]
		item := kv.Item{Version: version(step)}
		for n := rng.Intn(7); n > 0; n-- {
			d := kv.DepEntry{Key: keys[rng.Intn(universe)], Version: version(step)}
			switch rng.Intn(10) {
			case 0:
				d.Key = key // a self-dependency
			case 1:
				if len(item.Deps) > 0 {
					d.Key = item.Deps[0].Key // named twice, versions differing
				}
			}
			item.Deps = append(item.Deps, d)
		}
		depHash := make([]uint64, len(item.Deps))
		for i, d := range item.Deps {
			depHash[i] = hash(d.Key)
		}
		want, wantBad := ref.check(key, item)
		got, gotBad := rec.admit(key, hash(key), item, depHash)
		if got != want || gotBad != wantBad {
			t.Fatalf("seed %d step %d: read %s@%v deps %v: admit = %+v/%v, reference = %+v/%v",
				seed, step, key, item.Version, item.Deps, got, gotBad, want, wantBad)
		}
		if !wantBad {
			ref.record(key, item)
		}
		eq[want.equation]++
		if c := rec.contents(); !reflect.DeepEqual(c.read, ref.read) || !reflect.DeepEqual(c.expected, ref.expected) || !reflect.DeepEqual(c.order, ref.order) {
			t.Fatalf("seed %d step %d: after %s@%v deps %v (violation %v) the record diverged:\n table     %+v\n reference %+v",
				seed, step, key, item.Version, item.Deps, wantBad, c, ref)
		}
	}
	if universe > txnRecordSpill && rec.idx == nil {
		t.Fatalf("seed %d: %d rows never built the spill index", seed, len(rec.rows))
	}
	if eq[0] == 0 || eq[1]+eq[2] == 0 {
		t.Fatalf("seed %d: verdicts clean/eq.1/eq.2 = %v: the history lost its coverage", seed, eq)
	}
}

// TestAdmitHashCollisionDecidedByKey: two keys, one hash. The hash only
// orders the compares — the string still decides, so colliding keys keep
// separate rows and verdicts name the right one.
func TestAdmitHashCollisionDecidedByKey(t *testing.T) {
	v := func(c uint64) kv.Version { return kv.Version{Counter: c} }
	rec := newTxnRecord()
	if _, bad := rec.admit("a", 7, kv.Item{Version: v(1)}, nil); bad {
		t.Fatal("first read of a violated")
	}
	// b shares a's hash and is newer than what a was read at: were the
	// rows confused, this would be eq.1 on a repeated read.
	if viol, bad := rec.admit("b", 7, kv.Item{Version: v(5), Deps: kv.DepList{dep("c", 9)}}, []uint64{7}); bad {
		t.Fatalf("read of b (colliding with a) = %+v", viol)
	}
	if len(rec.rows) != 3 {
		t.Fatalf("rows = %+v, want one each for a, b, c", rec.rows)
	}
	// c — same hash again — is expected at 9 by b's list only.
	viol, bad := rec.admit("c", 7, kv.Item{Version: v(8)}, nil)
	if want := (violation{equation: 2, staleKey: "c", staleBelow: v(9)}); !bad || viol != want {
		t.Fatalf("stale read of c = %+v/%v, want %+v", viol, bad, want)
	}
	if got, want := rec.readSet(), []ReadVersion{{"a", v(1)}, {"b", v(5)}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reads = %v, want %v", got, want)
	}
	// And wholesale: every history of the reference test, all keys on one
	// hash, then on two.
	for seed := int64(1); seed <= 60; seed++ {
		admitHistory(t, seed, func(kv.Key) uint64 { return 42 })
		admitHistory(t, seed, func(k kv.Key) uint64 { return uint64(k[len(k)-1] & 1) })
	}
}

// TestCacheHashCollisionsChangeNothing runs the ReadMulti-vs-Read
// differential with one side's cache hashing every key to two values: the
// hash picks shards and orders compares, so values, errors, completions,
// residency and counters must not notice.
func TestCacheHashCollisionsChangeNothing(t *testing.T) {
	var eq1At, eq2At [5]int
	twoHashes := func(k kv.Key) uint64 { return uint64(len(k)) & 1 } // "ghost" apart, a–f together
	for _, strategy := range []Strategy{StrategyAbort, StrategyEvict, StrategyRetry} {
		for seed := int64(101); seed <= 108; seed++ {
			name := fmt.Sprintf("colliding/%v/seed%d", strategy, seed)
			runDifferential(t, name, Config{Strategy: strategy, Shards: 3}, true, seed, twoHashes, &eq1At, &eq2At)
		}
	}
	if eq1At == [5]int{} || eq2At == [5]int{} {
		t.Fatalf("no violations under colliding hashes (eq.1 %v, eq.2 %v): the test lost its coverage", eq1At, eq2At)
	}
}
