package main

// -fig eviction: the memory-bound figure. Three phases, each with a gate:
//
//  1. Hit ratio under pressure — a zipfian key stream whose working set
//     costs ~4x the byte budget, replayed against each eviction policy
//     (and an unbounded baseline). Resident bytes are asserted <= budget
//     after the run; the doorkeeper row shows admission filtering.
//  2. Warm-hit cost — the validated-read hot path through
//     testing.Benchmark per policy vs the unbounded cache. The gate:
//     a byte-bounded warm hit may not allocate more than the unbounded
//     one (the intrusive-handle design holds), and absolute ceilings
//     come from bench_budget.json (BenchmarkEvict* entries).
//  3. Shard scaling — warm-hit throughput at 8 clients on a bounded
//     cache with 1 vs 8 lock stripes; the per-shard-budget design must
//     not serialize the touch path.
//
// The measured numbers land in BENCH_pr10.json.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/evict"
	"tcache/internal/kv"
	"tcache/internal/workload"
)

const evictionBenchOut = "BENCH_pr10.json"

// evictionHitRow is one policy's result from the zipfian replay.
type evictionHitRow struct {
	Policy           string  `json:"policy"`
	HitPct           float64 `json:"hit_pct"`
	Evictions        uint64  `json:"evictions"`
	AdmissionRejects uint64  `json:"admission_rejects"`
	ResidentBytes    uint64  `json:"resident_bytes"`
	MaxBytes         uint64  `json:"max_bytes"`
}

// runEvictionFig measures hit ratio, warm-hit cost, and shard scaling
// of the byte-budgeted cache, and gates the allocation invariants.
func runEvictionFig(quick bool, seed int64) error {
	nKeys, accesses := 4096, 200_000
	scalePer := 400 * time.Millisecond
	if quick {
		nKeys, accesses = 1024, 20_000
		scalePer = 100 * time.Millisecond
	}
	valLen := 64

	d := db.Open(db.Config{DepBound: 5})
	defer d.Close()
	val := kv.Value(make([]byte, valLen))
	txn := d.Begin()
	for i := 0; i < nKeys; i++ {
		if err := txn.Write(workload.ObjectKey(i), val); err != nil {
			return err
		}
	}
	if _, err := txn.Commit(); err != nil {
		return err
	}

	// Budget ~= a quarter of the full set's resident cost: eviction has
	// to run continuously, and the policies differ in whom they keep.
	perEntry := evict.EntryOverhead + len(workload.ObjectKey(0)) + valLen
	budget := int64(nKeys) * int64(perEntry) / 4

	fmt.Printf("Eviction under pressure: %d keys x ~%dB/entry, budget %dKB (~25%% of set), zipf(1.1) x %d accesses\n",
		nKeys, perEntry, budget/1024, accesses)
	fmt.Printf("  %-12s %7s %10s %10s %12s\n", "policy", "hit%", "evictions", "rejects", "resident")

	type variant struct {
		name      string
		maxBytes  int64
		policy    evict.Kind
		admission bool
	}
	variants := []variant{
		{"unbounded", 0, evict.LRU, false},
		{"lru", budget, evict.LRU, false},
		{"clock", budget, evict.Clock, false},
		{"cost", budget, evict.Cost, false},
		{"lru+door", budget, evict.LRU, true},
	}
	hitRows := make([]evictionHitRow, 0, len(variants))
	for _, v := range variants {
		row, err := evictionHitRatio(d, v.maxBytes, v.policy, v.admission, v.name, nKeys, accesses, seed)
		if err != nil {
			return err
		}
		hitRows = append(hitRows, row)
		fmt.Printf("  %-12s %6.1f%% %10d %10d %9dKB\n",
			row.Policy, row.HitPct, row.Evictions, row.AdmissionRejects, row.ResidentBytes/1024)
	}

	// Phase 2: warm-hit allocation gate per policy.
	fmt.Printf("\nWarm-hit cost: validated read (%d reads/txn), bounded vs unbounded\n", telemetryWarmKeys)
	benches := []struct {
		name   string
		kind   evict.Kind
		budget int64
	}{
		{"BenchmarkEvictWarmHitUnbounded", evict.LRU, 0},
		{"BenchmarkEvictWarmHitLRU", evict.LRU, 1 << 20},
		{"BenchmarkEvictWarmHitClock", evict.Clock, 1 << 20},
		{"BenchmarkEvictWarmHitCost", evict.Cost, 1 << 20},
	}
	results := map[string]benchResult{}
	for _, bm := range benches {
		r := testing.Benchmark(benchEvictWarmHit(bm.kind, bm.budget))
		if r.N == 0 {
			return fmt.Errorf("%s ran zero iterations", bm.name)
		}
		res := benchResult{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		results[bm.name] = res
		fmt.Printf("  %-32s %10.0f ns/op %8d B/op %6d allocs/op\n",
			bm.name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}
	base := results["BenchmarkEvictWarmHitUnbounded"].AllocsPerOp
	for _, bm := range benches[1:] {
		if got := results[bm.name].AllocsPerOp; got > base {
			return fmt.Errorf("eviction gate: %s allocates (%d allocs/op vs %d unbounded)", bm.name, got, base)
		}
	}

	// Phase 3: shard scaling of the bounded touch path.
	fmt.Printf("\nShard scaling: 8 clients, warm byte-bounded cache (policy=clock)\n")
	rates := map[int]float64{}
	for _, shards := range []int{1, 8} {
		rate, err := evictionShardRate(d, shards, scalePer)
		if err != nil {
			return err
		}
		rates[shards] = rate
		fmt.Printf("  shards=%d  %12.0f txns/sec\n", shards, rate)
	}
	scaleRatio := rates[8] / rates[1]
	fmt.Printf("  8-shard vs 1-shard: %.2fx\n", scaleRatio)
	// The per-shard budget must not make striping worse than a single
	// mutex. With one CPU there is no contention for striping to remove
	// and the ratio is scheduler noise, so the gate needs two.
	if runtime.NumCPU() < 2 {
		fmt.Printf("  gate shard_scale_8v1 >= 0.8 skipped: runtime.NumCPU() = %d, striping cannot show on one CPU\n", runtime.NumCPU())
	} else if scaleRatio < 0.8 {
		return fmt.Errorf("eviction gate: 8-shard bounded throughput %.2fx of 1-shard (< 0.8)", scaleRatio)
	}

	report := struct {
		Machine    map[string]any         `json:"machine"`
		HitRatio   []evictionHitRow       `json:"hit_ratio"`
		Results    map[string]benchResult `json:"results"`
		ReadsPerOp int                    `json:"reads_per_op"`
		ScaleRatio float64                `json:"shard_scale_8v1"`
	}{
		Machine: map[string]any{
			"go":     runtime.Version(),
			"goos":   runtime.GOOS,
			"goarch": runtime.GOARCH,
			"cpus":   runtime.NumCPU(),
		},
		HitRatio:   hitRows,
		Results:    results,
		ReadsPerOp: telemetryWarmKeys,
		ScaleRatio: scaleRatio,
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(evictionBenchOut, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", evictionBenchOut)

	// Absolute ceilings from the checked-in budget file, when present.
	if raw, err := os.ReadFile(telemetryBenchBudget); err == nil {
		var budgets map[string]int64
		if err := json.Unmarshal(raw, &budgets); err != nil {
			return fmt.Errorf("bench budget %s: %w", telemetryBenchBudget, err)
		}
		for name, res := range results {
			if maxAllocs, ok := budgets[name]; ok && res.AllocsPerOp > maxAllocs {
				return fmt.Errorf("bench budget: %s: %d allocs/op exceeds budget %d", name, res.AllocsPerOp, maxAllocs)
			}
		}
	}
	fmt.Printf("eviction gates OK: bounded warm hit %d allocs/op (== unbounded), resident <= budget on every policy\n", base)
	return nil
}

// evictionHitRatio replays a zipfian stream against one cache variant
// and returns its hit row; it fails if resident bytes ever beat the
// budget at the end of the run (the per-insert invariant is exercised
// continuously by the core tests; this is the end-to-end check).
func evictionHitRatio(d *db.DB, maxBytes int64, policy evict.Kind, admission bool, name string, nKeys, accesses int, seed int64) (evictionHitRow, error) {
	cache, err := core.New(core.Config{
		Backend:   d,
		Strategy:  core.StrategyRetry,
		MaxBytes:  maxBytes,
		Policy:    policy,
		Admission: admission,
	})
	if err != nil {
		return evictionHitRow{}, err
	}
	defer cache.Close()

	zipf := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.1, 1, uint64(nKeys-1))
	ctx := context.Background()
	for i := 0; i < accesses; i++ {
		if _, err := cache.Get(ctx, workload.ObjectKey(int(zipf.Uint64()))); err != nil {
			return evictionHitRow{}, err
		}
	}
	m := cache.Metrics()
	row := evictionHitRow{
		Policy:           name,
		HitPct:           100 * float64(m.Hits) / float64(m.Reads),
		Evictions:        m.EvictionsLRU + m.EvictionsClock + m.EvictionsCost,
		AdmissionRejects: m.AdmissionRejects,
		ResidentBytes:    cache.ResidentBytes(),
		MaxBytes:         cache.MaxBytes(),
	}
	if maxBytes > 0 && row.ResidentBytes > row.MaxBytes {
		return row, fmt.Errorf("policy %s: resident %d bytes exceeds budget %d", name, row.ResidentBytes, row.MaxBytes)
	}
	return row, nil
}

// benchEvictWarmHit is benchCoreWarmHit with a byte budget: the same
// validated-read loop over telemetryWarmKeys warm keys, all of which fit
// under maxBytes, so every read is a budget-managed warm hit.
func benchEvictWarmHit(policy evict.Kind, maxBytes int64) func(b *testing.B) {
	return func(b *testing.B) {
		d := db.Open(db.Config{DepBound: 5})
		b.Cleanup(func() { d.Close() })
		txn := d.Begin()
		keys := make([]kv.Key, telemetryWarmKeys)
		for i := range keys {
			keys[i] = workload.ObjectKey(i)
			if err := txn.Write(keys[i], kv.Value("seed")); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
		cache, err := core.New(core.Config{
			Backend:  d,
			Strategy: core.StrategyRetry,
			MaxBytes: maxBytes,
			Policy:   policy,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(cache.Close)
		for _, k := range keys {
			if _, err := cache.Get(benchCtx, k); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := kv.TxnID(uint64(i) + 1)
			for r, k := range keys {
				if _, err := cache.Read(benchCtx, id, k, r == len(keys)-1); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// evictionShardRate measures warm-hit txns/sec at 8 clients on a
// byte-bounded CLOCK cache with the given stripe count. The 64-key
// working set fits the budget, so the loop exercises the bounded touch
// path (ref-bit store under the shard lock), not eviction.
func evictionShardRate(d *db.DB, shards int, per time.Duration) (float64, error) {
	nKeys, readsPerTxn := 64, 5
	cache, err := core.New(core.Config{
		Backend:  d,
		Strategy: core.StrategyRetry,
		Shards:   shards,
		MaxBytes: 1 << 20,
		Policy:   evict.Clock,
	})
	if err != nil {
		return 0, err
	}
	defer cache.Close()
	keys := make([]kv.Key, nKeys)
	for i := range keys {
		keys[i] = workload.ObjectKey(i)
		if _, err := cache.Get(context.Background(), keys[i]); err != nil {
			return 0, err
		}
	}
	return hitPathRate(cache, 8, keys, readsPerTxn, per)
}
