package main

// -fig writepath: the unified-write-path benchmark. It measures what an
// edge client pays to commit a read-modify-write transaction through
// each Updater implementation on loopback:
//
//   - in-process DB.Update (the interactive 2PL baseline);
//   - Remote.Update, the optimistic closure committed in ONE validated
//     OpUpdate round trip (the headline remote number: ns/op and
//     allocs/op of the whole read + commit cycle);
//   - a blind Remote write (no observed reads: the pure commit round
//     trip);
//   - Cache.Update on a remote-backed cache, including the synchronous
//     commit install that buys read-your-writes at the edge — and, for
//     a repeated update, the next attempt's whole snapshot: the figure
//     also counts the database reads a repeated 5-key read-modify-write
//     costs per commit (5 when the cache evicted what it wrote, 0 now
//     that it keeps it).
//
// Results go to BENCH_pr5.json; matching entries in bench_budget.json
// gate allocs/op regressions (CI runs this with -quick).

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"tcache"
	"tcache/internal/kv"
	"tcache/internal/workload"
)

const writeBenchOut = "BENCH_pr5.json"

// openWriteStack builds the remote deployment — a served DB holding one
// seeded key, a Remote dialed to it, a cache on the Remote — and returns
// every tier's Updater handle with the function that tears it down.
func openWriteStack() (d *tcache.DB, remote *tcache.Remote, cache *tcache.Cache, closeAll func(), err error) {
	var closers []func()
	closeAll = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	defer func() {
		if err != nil {
			closeAll()
		}
	}()
	d = tcache.OpenDB(tcache.WithDepListBound(5))
	closers = append(closers, func() { d.Close() })
	addr, stop, err := tcache.ServeDB(d, "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, nil, err
	}
	closers = append(closers, stop)
	if remote, err = tcache.Dial(benchCtx, addr); err != nil {
		return nil, nil, nil, nil, err
	}
	closers = append(closers, remote.Close)
	if cache, err = tcache.NewCache(remote, tcache.WithStrategy(tcache.StrategyRetry)); err != nil {
		return nil, nil, nil, nil, err
	}
	closers = append(closers, cache.Close)
	err = d.Update(benchCtx, func(tx *tcache.Tx) error {
		return tx.Set(workload.ObjectKey(0), kv.Value("seed"))
	})
	return d, remote, cache, closeAll, err
}

// writeStack is openWriteStack for a benchmark.
func writeStack(b *testing.B) (*tcache.DB, *tcache.Remote, *tcache.Cache) {
	b.Helper()
	d, remote, cache, closeAll, err := openWriteStack()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(closeAll)
	return d, remote, cache
}

// rmwLoop drives b.N single-key read-modify-write closures through up.
func rmwLoop(b *testing.B, up tcache.Updater) {
	key := workload.ObjectKey(0)
	val := kv.Value("w")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := up.Update(benchCtx, func(tx *tcache.Tx) error {
			if _, _, err := tx.Get(benchCtx, key); err != nil {
				return err
			}
			return tx.Set(key, val)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchWritePathDBUpdate(b *testing.B) {
	d, _, _ := writeStack(b)
	rmwLoop(b, d)
}

func benchWritePathRemoteUpdate(b *testing.B) {
	_, remote, _ := writeStack(b)
	rmwLoop(b, remote)
}

func benchWritePathRemoteBlindWrite(b *testing.B) {
	_, remote, _ := writeStack(b)
	key := workload.ObjectKey(0)
	val := kv.Value("w")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := remote.Update(benchCtx, func(tx *tcache.Tx) error {
			return tx.Set(key, val)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchWritePathCacheUpdate(b *testing.B) {
	_, _, cache := writeStack(b)
	rmwLoop(b, cache)
}

// backendReadsPerCachedUpdate repeats a 5-key read-modify-write through
// a remote-backed cache and returns the lock-free reads the database
// served per committed update after the first.
func backendReadsPerCachedUpdate() (float64, error) {
	d, _, cache, closeAll, err := openWriteStack()
	if err != nil {
		return 0, err
	}
	defer closeAll()
	keys := make([]tcache.Key, 5)
	for i := range keys {
		keys[i] = workload.ObjectKey(i)
	}
	const updates = 200
	var before uint64
	for i := 0; i <= updates; i++ {
		if i == 1 { // the first update's reads are cold either way
			before = d.Core().Metrics().SingleGets
		}
		if err := cache.Update(benchCtx, func(tx *tcache.Tx) error {
			for _, k := range keys {
				if _, _, err := tx.Get(benchCtx, k); err != nil {
					return err
				}
				if err := tx.Set(k, kv.Value("w")); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return 0, err
		}
	}
	return float64(d.Core().Metrics().SingleGets-before) / updates, nil
}

// runWritePath runs the write-path benchmarks, writes BENCH_pr5.json,
// and applies the allocs/op budget gate to any matching entries in
// bench_budget.json.
func runWritePath(quick bool, seed int64) error {
	_ = seed // loopback benchmarks carry no simulation randomness
	fmt.Printf("running unified write-path benchmarks (this takes ~10s)\n")
	benches := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"BenchmarkWritePathDBUpdate", benchWritePathDBUpdate},
		{"BenchmarkWritePathRemoteUpdate", benchWritePathRemoteUpdate},
		{"BenchmarkWritePathRemoteBlindWrite", benchWritePathRemoteBlindWrite},
		{"BenchmarkWritePathCacheUpdate", benchWritePathCacheUpdate},
	}
	if quick {
		// -quick keeps CI fast: the remote round trip (the headline) and
		// the cache path (self-invalidation) only.
		benches = benches[1:2:2]
		benches = append(benches, struct {
			name string
			fn   func(b *testing.B)
		}{"BenchmarkWritePathCacheUpdate", benchWritePathCacheUpdate})
	}
	results := map[string]benchResult{}
	for _, bench := range benches {
		r := testing.Benchmark(bench.fn)
		if r.N == 0 {
			return fmt.Errorf("%s failed (ran zero iterations)", bench.name)
		}
		res := benchResult{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		results[bench.name] = res
		fmt.Printf("  %-36s %12.0f ns/op %8d B/op %6d allocs/op\n",
			bench.name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}

	reads, err := backendReadsPerCachedUpdate()
	if err != nil {
		return fmt.Errorf("repeated cached update: %w", err)
	}
	fmt.Printf("  database reads per repeated 5-key cached update: %.2f (5.00 before commit install)\n", reads)
	if reads != 0 {
		return fmt.Errorf("a repeated cached update read the database %.2f times per commit: the cache is not keeping what it commits", reads)
	}

	report := struct {
		Machine map[string]any         `json:"machine"`
		Results map[string]benchResult `json:"results"`
	}{
		Machine: map[string]any{
			"go":     runtime.Version(),
			"goos":   runtime.GOOS,
			"goarch": runtime.GOARCH,
			"cpus":   runtime.NumCPU(),
		},
		Results: results,
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(writeBenchOut, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", writeBenchOut)

	if budgetRaw, err := os.ReadFile("bench_budget.json"); err == nil {
		var budget map[string]int64
		if json.Unmarshal(budgetRaw, &budget) == nil {
			scoped := map[string]int64{}
			for name, max := range budget {
				if _, ok := results[name]; ok {
					scoped[name] = max
				}
			}
			if len(scoped) > 0 {
				if err := checkScopedBudget(scoped, results); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
