package tcache_test

import (
	"context"
	"errors"
	"fmt"

	"tcache"
)

// The basic embedded flow: serializable updates against the database,
// transactional reads against the cache.
func Example() {
	ctx := context.Background()
	db := tcache.OpenDB()
	defer db.Close()
	cache, err := tcache.NewCache(db)
	if err != nil {
		panic(err)
	}
	defer cache.Close()

	_ = db.Update(ctx, func(tx *tcache.Tx) error {
		if err := tx.Set("train", tcache.Value("$29")); err != nil {
			return err
		}
		return tx.Set("tracks", tcache.Value("$12"))
	})

	_ = cache.ReadTxn(ctx, func(tx *tcache.ReadTx) error {
		train, err := tx.Get(ctx, "train")
		if err != nil {
			return err
		}
		tracks, err := tx.Get(ctx, "tracks")
		if err != nil {
			return err
		}
		fmt.Printf("train %s, tracks %s\n", train, tracks)
		return nil
	})
	// Output: train $29, tracks $12
}

// The paper's deployment shape in one process: the database served over
// TCP (the datacenter), a cache attached through Dial (the edge). The
// cache fills misses over the wire and receives the database's
// asynchronous invalidation stream; Backend-agnostic code cannot tell it
// apart from the embedded form.
func ExampleDial() {
	ctx := context.Background()

	// Datacenter side: open a database and serve it.
	db := tcache.OpenDB()
	defer db.Close()
	addr, stop, err := tcache.ServeDB(db, "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer stop()

	// Edge side: dial the database and attach a T-Cache.
	remote, err := tcache.Dial(ctx, addr)
	if err != nil {
		panic(err)
	}
	defer remote.Close()
	cache, err := tcache.NewCache(remote, tcache.WithStrategy(tcache.StrategyRetry))
	if err != nil {
		panic(err)
	}
	defer cache.Close()

	// Updates can come from anywhere; here, straight into the database.
	_ = db.Update(ctx, func(tx *tcache.Tx) error {
		return tx.Set("train", tcache.Value("$29"))
	})

	val, err := cache.Get(ctx, "train")
	if err != nil {
		panic(err)
	}
	fmt.Printf("train %s\n", val)
	// Output: train $29
}

// GetMulti reads a whole page of keys in one transactional batch: every
// key missing from the cache is fetched from the backend in a single
// request (one round trip to a remote database), and every read is still
// validated against the transaction's §III-B checks.
func ExampleReadTx_GetMulti() {
	ctx := context.Background()
	db := tcache.OpenDB()
	defer db.Close()
	cache, err := tcache.NewCache(db)
	if err != nil {
		panic(err)
	}
	defer cache.Close()

	_ = db.Update(ctx, func(tx *tcache.Tx) error {
		if err := tx.Set("train", tcache.Value("$29")); err != nil {
			return err
		}
		if err := tx.Set("tracks", tcache.Value("$12")); err != nil {
			return err
		}
		return tx.Set("signal", tcache.Value("$7"))
	})

	_ = cache.ReadTxn(ctx, func(tx *tcache.ReadTx) error {
		page, err := tx.GetMulti(ctx, "train", "tracks", "signal")
		if err != nil {
			return err
		}
		for _, v := range page {
			fmt.Printf("%s ", v)
		}
		fmt.Println()
		return nil
	})
	// Output: $29 $12 $7
}

// A torn read under total invalidation loss: the cache holds a stale
// "tracks" while "train" is fetched fresh; the dependency list exposes
// the mismatch and the transaction aborts instead of lying.
func ExampleCache_ReadTxn_detection() {
	ctx := context.Background()
	db := tcache.OpenDB()
	defer db.Close()
	cache, err := tcache.NewCache(db,
		tcache.WithStrategy(tcache.StrategyAbort),
		tcache.WithLossyLink(1.0, 0, 0, 1), // drop ALL invalidations
	)
	if err != nil {
		panic(err)
	}
	defer cache.Close()

	seed := func(k tcache.Key, v string) {
		_ = db.Update(ctx, func(tx *tcache.Tx) error { return tx.Set(k, tcache.Value(v)) })
	}
	seed("train", "$29")
	seed("tracks", "$12")
	_, _ = cache.Get(ctx, "tracks") // cache tracks@old

	// Reprice both in one transaction; the cache hears nothing.
	_ = db.Update(ctx, func(tx *tcache.Tx) error {
		for _, k := range []tcache.Key{"train", "tracks"} {
			if _, _, err := tx.Get(ctx, k); err != nil {
				return err
			}
		}
		if err := tx.Set("train", tcache.Value("$35")); err != nil {
			return err
		}
		return tx.Set("tracks", tcache.Value("$15"))
	})

	err = cache.ReadTxn(ctx, func(tx *tcache.ReadTx) error {
		if _, err := tx.Get(ctx, "train"); err != nil { // miss → fresh, with deps
			return err
		}
		_, err := tx.Get(ctx, "tracks") // stale cached copy
		return err
	})
	fmt.Println("aborted:", errors.Is(err, tcache.ErrTxnAborted))
	// Output: aborted: true
}

// StrategyRetry heals the same situation transparently: the violating
// read is served from the database and the transaction commits.
func ExampleWithStrategy_retry() {
	ctx := context.Background()
	db := tcache.OpenDB()
	defer db.Close()
	cache, err := tcache.NewCache(db,
		tcache.WithStrategy(tcache.StrategyRetry),
		tcache.WithLossyLink(1.0, 0, 0, 1),
	)
	if err != nil {
		panic(err)
	}
	defer cache.Close()

	_ = db.Update(ctx, func(tx *tcache.Tx) error { return tx.Set("tracks", tcache.Value("$12")) })
	_, _ = cache.Get(ctx, "tracks")
	_ = db.Update(ctx, func(tx *tcache.Tx) error {
		for _, k := range []tcache.Key{"train", "tracks"} {
			if _, _, err := tx.Get(ctx, k); err != nil {
				return err
			}
		}
		if err := tx.Set("train", tcache.Value("$35")); err != nil {
			return err
		}
		return tx.Set("tracks", tcache.Value("$15"))
	})

	var tracks tcache.Value
	err = cache.ReadTxn(ctx, func(tx *tcache.ReadTx) error {
		if _, err := tx.Get(ctx, "train"); err != nil {
			return err
		}
		tracks, err = tx.Get(ctx, "tracks")
		return err
	})
	fmt.Printf("err=%v tracks=%s\n", err, tracks)
	// Output: err=<nil> tracks=$15
}

// DialCluster shards the read path over a fleet of edge nodes: the
// local cache fills misses through a consistent-hash router that
// survives losing a node. ServeEdge stands in for cmd/tcached.
func ExampleDialCluster() {
	ctx := context.Background()

	// Datacenter: the database, served over TCP.
	db := tcache.OpenDB()
	defer db.Close()
	dbAddr, stopDB, err := tcache.ServeDB(db, "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer stopDB()

	// Edge tier: three cache nodes, each attached to the database.
	var fleet []string
	for i := 0; i < 3; i++ {
		edge, err := tcache.ServeEdge(ctx, dbAddr, "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		defer edge.Close()
		fleet = append(fleet, edge.Addr())
	}

	// Client: one cache attached to the whole fleet.
	cc, err := tcache.DialCluster(ctx, fleet)
	if err != nil {
		panic(err)
	}
	defer cc.Close()

	_ = db.Update(ctx, func(tx *tcache.Tx) error {
		if err := tx.Set("train", tcache.Value("in stock")); err != nil {
			return err
		}
		return tx.Set("tracks", tcache.Value("in stock"))
	})

	err = cc.ReadTxn(ctx, func(tx *tcache.ReadTx) error {
		page, err := tx.GetMulti(ctx, "train", "tracks")
		if err != nil {
			return err
		}
		fmt.Printf("train=%s tracks=%s\n", page[0], page[1])
		return nil
	})
	fmt.Printf("err=%v nodes=%d\n", err, len(cc.Nodes()))
	// Output:
	// train=in stock tracks=in stock
	// err=<nil> nodes=3
}

// The unified write path: the SAME read-modify-write closure commits
// through every tier — the in-process database, a remote database over
// the wire (one validated round trip), and an edge cache (which then
// reads its own write immediately, before any invalidation arrives).
func ExampleUpdater() {
	ctx := context.Background()
	db := tcache.OpenDB()
	defer db.Close()
	addr, stopDB, err := tcache.ServeDB(db, "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer stopDB()
	remote, err := tcache.Dial(ctx, addr)
	if err != nil {
		panic(err)
	}
	defer remote.Close()
	cache, err := tcache.NewCache(remote)
	if err != nil {
		panic(err)
	}
	defer cache.Close()

	// One closure, any tier.
	restock := func(tx *tcache.Tx) error {
		cur, found, err := tx.Get(ctx, "stock")
		if err != nil {
			return err
		}
		n := 0
		if found {
			n = int(cur[0] - '0')
		}
		return tx.Set("stock", tcache.Value{byte('0' + n + 1)})
	}

	for _, up := range []tcache.Updater{db, remote, cache} {
		if err := up.Update(ctx, restock); err != nil {
			panic(err)
		}
	}

	// The cache reads its own write instantly (the commit installed it),
	// no matter how slow or lossy the invalidation stream is.
	v, err := cache.Get(ctx, "stock")
	fmt.Printf("stock=%s err=%v\n", v, err)
	// Output:
	// stock=3 err=<nil>
}
