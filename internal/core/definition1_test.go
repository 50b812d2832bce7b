package core_test

import (
	"context"
	"fmt"
	"testing"

	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/kv"
	"tcache/internal/monitor"
)

// bgc is the background context used by reads that don't exercise
// cancellation.
var bgc = context.Background()

// TestDefinition1WeakerThanGlobalSerializability demonstrates the point
// of the paper's Definition 1: transactions through a SINGLE cache are
// serializable with all updates, but transactions through DIFFERENT
// caches may observe independent updates in opposite orders — the global
// execution is not serializable, and cache-serializability does not
// promise it.
//
// Construction: two independent update transactions U_x (writes x) and
// U_y (writes y). Cache A receives only U_x's invalidation; cache B only
// U_y's. A's transaction reads {x@new, y@old}; B's reads {x@old, y@new}.
// Each is serializable on its own (U_x ≺ T_A ≺ U_y and U_y ≺ T_B ≺ U_x
// respectively) — but the two orderings are contradictory, so no single
// serial order fits both: T_A ≺ U_y ≺ T_B ≺ U_x ≺ T_A is a cycle.
func TestDefinition1WeakerThanGlobalSerializability(t *testing.T) {
	d := db.Open(db.Config{DepBound: 5})
	defer d.Close()
	mon := monitor.New()
	d.OnCommit(func(rec db.CommitRecord) {
		reads := make([]monitor.Read, len(rec.Reads))
		for i, r := range rec.Reads {
			reads[i] = monitor.Read{Key: r.Key, Version: r.Version}
		}
		mon.RecordUpdate(rec.Version, rec.Writes, reads)
	})

	newCache := func() *core.Cache {
		c, err := core.New(core.Config{Backend: d, Strategy: core.StrategyAbort})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	cacheA, cacheB := newCache(), newCache()

	// Seed x and y via two independent transactions.
	write := func(key kv.Key, val string) kv.Version {
		res, err := d.CommitUpdate(bgc, nil, []kv.KeyValue{{Key: key, Value: kv.Value(val)}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Version
	}
	oldX := write("x", "x0")
	oldY := write("y", "y0")

	// Both caches hold the old versions.
	for _, c := range []*core.Cache{cacheA, cacheB} {
		if _, err := c.Get(bgc, "x"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(bgc, "y"); err != nil {
			t.Fatal(err)
		}
	}

	// Independent updates; invalidations delivered selectively (the
	// asynchronous channel made concrete).
	newX := write("x", "x1")
	newY := write("y", "y1")
	cacheA.Invalidate("x", newX) // A hears about x only
	cacheB.Invalidate("y", newY) // B hears about y only

	readPair := func(c *core.Cache, id kv.TxnID) (x, y kv.Version) {
		var comp core.Completion
		c.OnComplete(func(cp core.Completion) {
			if cp.TxnID == id {
				comp = cp
			}
		})
		if _, err := c.Read(bgc, id, "x", false); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(bgc, id, "y", true); err != nil {
			t.Fatal(err)
		}
		got := map[kv.Key]kv.Version{}
		for _, r := range comp.Reads {
			got[r.Key] = r.Version
		}
		return got["x"], got["y"]
	}

	ax, ay := readPair(cacheA, 1)
	bx, by := readPair(cacheB, 1)

	// Each cache's transaction is serializable with the full update
	// history (cache-serializability holds per cache)...
	for _, txn := range []struct {
		name string
		x, y kv.Version
	}{{"A", ax, ay}, {"B", bx, by}} {
		reads := []monitor.Read{{Key: "x", Version: txn.x}, {Key: "y", Version: txn.y}}
		if !mon.ClassifyExact(reads) {
			t.Fatalf("cache %s's transaction not serializable: %v", txn.name, reads)
		}
	}

	// ...but the two caches observed the independent updates in OPPOSITE
	// orders: A saw U_x but not U_y, B saw U_y but not U_x. No single
	// serialization satisfies both (T_A ≺ U_y ≺ T_B ≺ U_x ≺ T_A), which
	// is exactly the relaxation Definition 1 grants.
	if !(ax == newX && ay == oldY) {
		t.Fatalf("cache A read x@%v,y@%v; want x@%v (new), y@%v (old)", ax, ay, newX, oldY)
	}
	if !(bx == oldX && by == newY) {
		t.Fatalf("cache B read x@%v,y@%v; want x@%v (old), y@%v (new)", bx, by, oldX, newY)
	}
}

// TestPerCacheSerializabilityManyCaches runs several lossy caches off one
// database and asserts cache-serializability per cache under unbounded
// dependency lists (Definition 1 at larger scale).
func TestPerCacheSerializabilityManyCaches(t *testing.T) {
	d := db.Open(db.Config{DepBound: kv.Unbounded})
	defer d.Close()

	const caches = 4
	mons := make([]*monitor.Monitor, caches)
	cs := make([]*core.Cache, caches)
	for i := range cs {
		mons[i] = monitor.New()
		c, err := core.New(core.Config{Backend: d, Strategy: core.StrategyAbort})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		cs[i] = c
		mon := mons[i]
		c.OnComplete(func(comp core.Completion) {
			reads := make([]monitor.Read, 0, len(comp.Reads)+1)
			for _, r := range comp.Reads {
				reads = append(reads, monitor.Read{Key: r.Key, Version: r.Version})
			}
			if comp.Attempted != nil {
				reads = append(reads, monitor.Read{Key: comp.Attempted.Key, Version: comp.Attempted.Version})
			}
			mon.RecordReadOnly(reads, comp.Committed)
		})
	}
	d.OnCommit(func(rec db.CommitRecord) {
		reads := make([]monitor.Read, len(rec.Reads))
		for i, r := range rec.Reads {
			reads[i] = monitor.Read{Key: r.Key, Version: r.Version}
		}
		for _, mon := range mons {
			mon.RecordUpdate(rec.Version, rec.Writes, reads)
		}
	})

	// Interleave updates and per-cache reads; each cache receives an
	// arbitrary (different) subset of invalidations.
	keys := make([]kv.Key, 20)
	for i := range keys {
		keys[i] = kv.Key(fmt.Sprintf("k%d", i))
		if _, err := d.CommitUpdate(bgc, nil, []kv.KeyValue{{Key: keys[i], Value: kv.Value("seed")}}); err != nil {
			t.Fatal(err)
		}
	}
	var txnID kv.TxnID
	for round := 0; round < 200; round++ {
		// One update over a 4-key window.
		var reads []kv.ObservedRead
		var writes []kv.KeyValue
		for j := 0; j < 4; j++ {
			k := keys[(round+j)%len(keys)]
			item, found := d.Get(k)
			reads = append(reads, kv.ObservedRead{Key: k, Version: item.Version, Found: found})
			writes = append(writes, kv.KeyValue{Key: k, Value: kv.Value(fmt.Sprintf("r%d", round))})
		}
		res, err := d.CommitUpdate(bgc, reads, writes)
		newV := res.Version
		if err != nil {
			t.Fatal(err)
		}
		// Deliver invalidations selectively: cache i hears about the
		// update only when round%caches != i.
		for i, c := range cs {
			if round%caches == i {
				continue
			}
			for j := 0; j < 4; j++ {
				c.Invalidate(keys[(round+j)%len(keys)], newV)
			}
		}
		// Each cache runs one read-only transaction over the window.
		for _, c := range cs {
			txnID++
			for j := 0; j < 4; j++ {
				if _, err := c.Read(bgc, txnID, keys[(round+j)%len(keys)], j == 3); err != nil {
					break // aborts are fine
				}
			}
		}
	}

	for i, mon := range mons {
		s := mon.Stats()
		if s.CommittedInconsistent != 0 {
			t.Fatalf("cache %d violated cache-serializability: %+v", i, s)
		}
		if s.Committed() == 0 {
			t.Fatalf("cache %d committed nothing; test has no power", i)
		}
	}
}
