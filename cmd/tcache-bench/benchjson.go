package main

// -benchjson: machine-readable perf tracking. Runs the remote (loopback
// wire) and hit-path benchmarks through testing.Benchmark and writes
// ns/op, B/op, allocs/op as JSON, so the perf trajectory of the hot
// paths is recorded per PR (BENCH_pr3.json) instead of living in commit
// messages. An optional budget file turns the run into a regression
// gate: CI fails when a benchmark's allocs/op exceeds its checked-in
// budget.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"tcache"
	"tcache/internal/kv"
	"tcache/internal/workload"
)

// benchResult is one benchmark's measured hot-path cost.
type benchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchReport is the BENCH_pr3.json document. Baseline is preserved
// verbatim from an existing file, so the gob-era numbers recorded before
// the codec swap stay alongside every regenerated current section.
type benchReport struct {
	Machine  map[string]any         `json:"machine"`
	Baseline json.RawMessage        `json:"baseline_gob,omitempty"`
	Results  map[string]benchResult `json:"results"`
}

func runBenchJSON(outPath, budgetPath string) error {
	fmt.Printf("running wire + hit-path benchmarks (this takes ~10s)\n")
	results := map[string]benchResult{}
	for _, bench := range []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"BenchmarkRemoteReadTxn", benchRemoteReadTxn},
		{"BenchmarkRemoteReadTxnColdSingle", benchRemoteReadTxnColdSingle},
		{"BenchmarkRemoteReadTxnColdMulti", benchRemoteReadTxnColdMulti},
		{"BenchmarkCacheHitRead", benchCacheHitRead},
		{"BenchmarkCachePlainGet", benchCachePlainGet},
		{"BenchmarkCacheReadTxnGetMulti", benchCacheReadTxnGetMulti},
	} {
		r := testing.Benchmark(bench.fn)
		if r.N == 0 {
			// b.Fatal inside the body yields a zero result; surface the
			// benchmark's name instead of a NaN that breaks marshalling.
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

	report := benchReport{
		Machine: map[string]any{
			"go":     runtime.Version(),
			"goos":   runtime.GOOS,
			"goarch": runtime.GOARCH,
			"cpus":   runtime.NumCPU(),
		},
		Results: results,
	}
	// Preserve the recorded gob baseline if the file already carries one.
	if prev, err := os.ReadFile(outPath); err == nil {
		var old struct {
			Baseline json.RawMessage `json:"baseline_gob"`
		}
		if json.Unmarshal(prev, &old) == nil && len(old.Baseline) > 0 {
			report.Baseline = old.Baseline
		}
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)

	if budgetPath == "" {
		return nil
	}
	return checkBenchBudget(budgetPath, results)
}

// checkBenchBudget fails when any benchmark allocates more per op than
// its checked-in budget allows — the warm-hit allocation regression gate.
func checkBenchBudget(path string, results map[string]benchResult) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("bench budget: %w", err)
	}
	var budget map[string]int64
	if err := json.Unmarshal(raw, &budget); err != nil {
		return fmt.Errorf("bench budget %s: %w", path, err)
	}
	var failures []string
	checked := 0
	for name, maxAllocs := range budget {
		if strings.HasPrefix(name, "BenchmarkCluster") {
			continue // gated by the cluster runner (-fig cluster)
		}
		if strings.HasPrefix(name, "BenchmarkWritePath") {
			continue // gated by the write-path runner (-fig writepath)
		}
		if strings.HasPrefix(name, "BenchmarkWarmHitTelemetry") {
			continue // gated by the telemetry runner (-fig telemetry)
		}
		if strings.HasPrefix(name, "BenchmarkDurableCommit") {
			continue // gated by the durability/replication runners
		}
		if strings.HasPrefix(name, "BenchmarkEvict") {
			continue // gated by the eviction runner (-fig eviction)
		}
		checked++
		res, ok := results[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: budgeted but not measured", name))
			continue
		}
		if res.AllocsPerOp > maxAllocs {
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op exceeds budget %d", name, res.AllocsPerOp, maxAllocs))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "budget FAIL:", f)
		}
		return fmt.Errorf("bench budget: %d regression(s)", len(failures))
	}
	fmt.Printf("bench budget OK (%d benchmarks within allocs/op budget)\n", checked)
	return nil
}

// --- Benchmark bodies ---------------------------------------------------
//
// These mirror the root-package benchmarks (bench_test.go) through the
// public API; they live here because a main package cannot invoke _test
// code, and testing.Benchmark needs plain funcs.

var benchCtx = context.Background()

// remoteStack builds the paper's deployment over loopback: a served DB,
// a Dial-attached Remote, and a T-Cache on top.
func remoteStack(b *testing.B, nKeys int) *tcache.Cache {
	b.Helper()
	d := tcache.OpenDB(tcache.WithDepListBound(5))
	b.Cleanup(func() { d.Close() })
	addr, stop, err := tcache.ServeDB(d, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(stop)
	remote, err := tcache.Dial(benchCtx, addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(remote.Close)
	cache, err := tcache.NewCache(remote, tcache.WithStrategy(tcache.StrategyRetry))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cache.Close)
	if err := d.Update(benchCtx, func(tx *tcache.Tx) error {
		for i := 0; i < nKeys; i++ {
			if err := tx.Set(workload.ObjectKey(i), kv.Value("seed")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	return cache
}

func benchKeys(n int) []tcache.Key {
	keys := make([]tcache.Key, n)
	for i := range keys {
		keys[i] = workload.ObjectKey(i)
	}
	return keys
}

func benchRemoteReadTxn(b *testing.B) {
	cache := remoteStack(b, 5)
	keys := benchKeys(5)
	for _, k := range keys {
		if _, err := cache.Get(benchCtx, k); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cache.ReadTxn(benchCtx, func(tx *tcache.ReadTx) error {
			for _, k := range keys {
				if _, err := tx.Get(benchCtx, k); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRemoteReadTxnColdSingle(b *testing.B) {
	cache := remoteStack(b, 5)
	keys := benchKeys(5)
	evict := kv.Version{Counter: ^uint64(0) - 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			cache.Invalidate(k, evict)
		}
		if err := cache.ReadTxn(benchCtx, func(tx *tcache.ReadTx) error {
			for _, k := range keys {
				if _, err := tx.Get(benchCtx, k); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRemoteReadTxnColdMulti(b *testing.B) {
	cache := remoteStack(b, 5)
	keys := benchKeys(5)
	evict := kv.Version{Counter: ^uint64(0) - 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			cache.Invalidate(k, evict)
		}
		if err := cache.ReadTxn(benchCtx, func(tx *tcache.ReadTx) error {
			_, err := tx.GetMulti(benchCtx, keys...)
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// localCache attaches a cache to an in-process DB with warmed keys.
func localCache(b *testing.B, nKeys int, opts ...tcache.CacheOption) *tcache.Cache {
	b.Helper()
	d := tcache.OpenDB(tcache.WithDepListBound(5))
	b.Cleanup(func() { d.Close() })
	cache, err := tcache.NewCache(d, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cache.Close)
	if err := d.Update(benchCtx, func(tx *tcache.Tx) error {
		for i := 0; i < nKeys; i++ {
			if err := tx.Set(workload.ObjectKey(i), kv.Value("seed")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < nKeys; i++ {
		if _, err := cache.Get(benchCtx, workload.ObjectKey(i)); err != nil {
			b.Fatal(err)
		}
	}
	return cache
}

func benchCacheHitRead(b *testing.B) {
	cache := localCache(b, 5)
	keys := benchKeys(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cache.ReadTxn(benchCtx, func(tx *tcache.ReadTx) error {
			for _, k := range keys {
				if _, err := tx.Get(benchCtx, k); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCacheReadTxnGetMulti is the warm read transaction the edge_hit
// workload of bench/ runs: ReadTxn{GetMulti(5)} with telemetry on.
func benchCacheReadTxnGetMulti(b *testing.B) {
	cache := localCache(b, 5, tcache.WithTelemetry(tcache.NewTelemetry()))
	keys := benchKeys(5)
	read := func(tx *tcache.ReadTx) error {
		_, err := tx.GetMulti(benchCtx, keys...)
		return err
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cache.ReadTxn(benchCtx, read); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCachePlainGet(b *testing.B) {
	cache := localCache(b, 5)
	keys := benchKeys(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Get(benchCtx, keys[i%5]); err != nil {
			b.Fatal(err)
		}
	}
}
