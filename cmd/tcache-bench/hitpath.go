package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/kv"
	"tcache/internal/workload"
)

// runHitPath measures the validated-read hot path (§III-B on a warm cache)
// under increasing client concurrency, the workload the lock-striped cache
// shards target. It is not a paper figure: it is the capacity-planning
// companion to BenchmarkCacheHitReadParallel, reporting absolute
// transactions/second on real time instead of ns/op.
func runHitPath(quick bool, _ int64) error {
	nKeys, readsPerTxn := 64, 5
	per := 2 * time.Second
	if quick {
		per = 200 * time.Millisecond
	}

	d := db.Open(db.Config{DepBound: 5})
	defer d.Close()
	txn := d.Begin()
	for i := 0; i < nKeys; i++ {
		if err := txn.Write(workload.ObjectKey(i), kv.Value("seed")); err != nil {
			return err
		}
	}
	if _, err := txn.Commit(); err != nil {
		return err
	}

	cache, err := core.New(core.Config{
		Backend:  d,
		Strategy: core.StrategyRetry,
		Shards:   cacheShards,
	})
	if err != nil {
		return err
	}
	defer cache.Close()
	// Built once: ObjectKey is a Sprintf the timed loop must not pay for.
	keys := make([]kv.Key, nKeys)
	for i := range keys {
		keys[i] = workload.ObjectKey(i)
		if _, err := cache.Get(context.Background(), keys[i]); err != nil {
			return err
		}
	}

	fmt.Printf("Hit-path throughput (%d warm keys, %d reads/txn, %d cache shards, GOMAXPROCS=%d)\n",
		nKeys, readsPerTxn, cache.Shards(), runtime.GOMAXPROCS(0))
	fmt.Printf("%8s  %12s  %10s\n", "clients", "txns/sec", "vs 1")
	var base float64
	for _, clients := range []int{1, 2, 4, 8, 16} {
		rate, err := hitPathRate(cache, clients, keys, readsPerTxn, per)
		if err != nil {
			return err
		}
		if clients == 1 {
			base = rate
		}
		fmt.Printf("%8d  %12.0f  %9.2fx\n", clients, rate, rate/base)
	}
	return nil
}

// hitPathRate drives the cache from `clients` goroutines for roughly
// `per` and returns committed transactions per second.
func hitPathRate(cache *core.Cache, clients int, keys []kv.Key, readsPerTxn int, per time.Duration) (float64, error) {
	var (
		nextID atomic.Uint64
		txns   atomic.Uint64
		stop   atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex
		first  error
	)
	start := time.Now()
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				id := nextID.Add(1)
				base := int(id*uint64(readsPerTxn)) % len(keys)
				for r := 0; r < readsPerTxn; r++ {
					k := keys[(base+r)%len(keys)]
					if _, err := cache.Read(context.Background(), kv.TxnID(id), k, r == readsPerTxn-1); err != nil {
						mu.Lock()
						if first == nil {
							first = err
						}
						mu.Unlock()
						return
					}
				}
				txns.Add(1)
			}
		}()
	}
	time.Sleep(per)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	if first != nil {
		return 0, first
	}
	return float64(txns.Load()) / elapsed.Seconds(), nil
}
