package tcache_test

import (
	"context"
	"fmt"
	"testing"

	"tcache"
	"tcache/internal/core"
)

// warmCache returns a cache over an in-process database holding n keys,
// all of them already cached.
func warmCache(t *testing.T, n int, opts ...tcache.CacheOption) (*tcache.Cache, []tcache.Key) {
	t.Helper()
	ctx := context.Background()
	d := tcache.OpenDB()
	t.Cleanup(func() { d.Close() })
	keys := make([]tcache.Key, n)
	for i := range keys {
		keys[i] = tcache.Key(fmt.Sprintf("k%02d", i))
	}
	if err := d.Update(ctx, func(tx *tcache.Tx) error {
		for _, k := range keys {
			if err := tx.Set(k, tcache.Value("v-"+k)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	c, err := tcache.NewCache(d, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.ReadTxn(ctx, func(tx *tcache.ReadTx) error {
		_, err := tx.GetMulti(ctx, keys...)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return c, keys
}

// TestCompletionReadsSurviveRecycling: a completion hook may keep the
// Completion.Reads it is handed; 10 000 further transactions — each
// reusing a recycled transaction record — must not write into what it
// kept.
func TestCompletionReadsSurviveRecycling(t *testing.T) {
	ctx := context.Background()
	c, keys := warmCache(t, 8)
	var kept [][]core.ReadVersion
	c.Core().OnComplete(func(cp core.Completion) {
		if len(kept) < 100 {
			kept = append(kept, cp.Reads) // retained, not copied
		}
	})
	for i := 0; i < 10_100; i++ {
		batch := []tcache.Key{keys[i%8], keys[(i+3)%8], keys[(i+5)%8]}
		if err := c.ReadTxn(ctx, func(tx *tcache.ReadTx) error {
			_, err := tx.GetMulti(ctx, batch...)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(kept) != 100 {
		t.Fatalf("hook kept %d completions, want 100", len(kept))
	}
	for i, reads := range kept {
		want := []tcache.Key{keys[i%8], keys[(i+3)%8], keys[(i+5)%8]}
		if len(reads) != len(want) {
			t.Fatalf("completion %d: %d reads, want %d", i, len(reads), len(want))
		}
		for j, r := range reads {
			if r.Key != want[j] || r.Version.IsZero() {
				t.Fatalf("completion %d read %d = %+v, want key %s: retained reads were overwritten", i, j, r, want[j])
			}
		}
	}
}

// TestTelemetryCountsExactAndSampled pins which telemetry series are
// exact and which are samples: one client_read_txn_ns and one
// client_read_multi_ns observation per transaction and batch, one
// client_read_cold_ns per filled key, and client_read_warm_ns a
// 1-in-64 per-shard sample whose first hit is always taken — while the
// hits counter stays exact.
func TestTelemetryCountsExactAndSampled(t *testing.T) {
	ctx := context.Background()
	tel := tcache.NewTelemetry()
	c, keys := warmCache(t, 5, tcache.WithTelemetry(tel), tcache.WithCacheShards(1)) // one cold batch
	const txns = 200
	for i := 0; i < txns; i++ {
		if err := c.ReadTxn(ctx, func(tx *tcache.ReadTx) error {
			_, err := tx.GetMulti(ctx, keys...)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	snap := tel.Snapshot()
	readTxn, multi := snap.Histograms["client_read_txn_ns"], snap.Histograms["client_read_multi_ns"]
	cold, warm := snap.Histograms["client_read_cold_ns"], snap.Histograms["client_read_warm_ns"]
	if readTxn.Count() != txns+1 || multi.Count() != txns+1 {
		t.Errorf("ReadTxn.Count = %d, ReadMulti.Count = %d, want %d each", readTxn.Count(), multi.Count(), txns+1)
	}
	if cold.Count() != 5 {
		t.Errorf("ReadCold.Count = %d, want 5 (one per filled key)", cold.Count())
	}
	hits := uint64(txns * 5)
	if got := c.Stats().Hits; got != hits {
		t.Errorf("Stats().Hits = %d, want exactly %d", got, hits)
	}
	if want := (hits + 63) / 64; warm.Count() != want {
		t.Errorf("ReadWarm.Count = %d, want %d (every 64th hit of the one shard, the first included)", warm.Count(), want)
	}
}
