package tcache_test

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"tcache"
)

// scrape fetches an admin endpoint and returns the body.
func scrape(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestServeMetricsDB: the database admin listener serves a valid
// Prometheus exposition of the full registry and a role-aware healthz.
func TestServeMetricsDB(t *testing.T) {
	ctx := context.Background()
	d := tcache.OpenDB()
	defer d.Close()
	// Commit through the validated (OpUpdate) path — the one the commit
	// histogram instruments.
	if _, err := d.ValidatedUpdate(ctx, nil,
		[]tcache.KeyValue{{Key: "k", Value: tcache.Value("v")}}); err != nil {
		t.Fatal(err)
	}

	bound, stop, err := d.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	code, body := scrape(t, "http://"+bound+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, want := range []string{
		"tcache_txns_committed_total 1",
		"tcache_update_commit_ns_count 1",
		"tcache_update_commit_ns_bucket{le=\"+Inf\"} 1",
		"tcache_wal_healthy 1",
		"tcache_repl_lag 0",
		"tcache_wal_fsyncs_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}

	code, health := scrape(t, "http://"+bound+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz: status %d body %q", code, health)
	}
	if !strings.Contains(health, "ok role=primary") {
		t.Fatalf("/healthz = %q, want ok role=primary", health)
	}

	code, _ = scrape(t, "http://"+bound+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/: status %d", code)
	}
}

// TestServeMetricsEdge: a live edge node scrapes hit/miss counters,
// latency histogram families, and relay/conn-pool gauges, and its wire
// OpStats carries the same registry in the flat encoding.
func TestServeMetricsEdge(t *testing.T) {
	ctx := context.Background()
	d := tcache.OpenDB()
	defer d.Close()
	if err := d.Update(ctx, func(tx *tcache.Tx) error {
		return tx.Set("edge-key", tcache.Value("v"))
	}); err != nil {
		t.Fatal(err)
	}
	dbAddr, stopDB, err := tcache.ServeDB(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stopDB()

	e, err := tcache.ServeEdge(ctx, dbAddr, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Two reads of one key through the edge: a cold fill, then a hit.
	r, err := tcache.Dial(ctx, e.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 2; i++ {
		if _, ok, err := r.ReadItem(ctx, "edge-key"); err != nil || !ok {
			t.Fatalf("read %d: ok=%v err=%v", i, ok, err)
		}
	}

	bound, stop, err := e.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	code, body := scrape(t, "http://"+bound+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, want := range []string{
		"tcache_reads_total 2",
		"tcache_hits_total 1",
		"tcache_misses_total 1",
		"tcache_cache_entries 1",
		"tcache_relay_subscribers 0",
		"tcache_backend_pool_size 4",
		// No Telemetry attached: the histogram families still exist (zero
		// observations), keeping the scrape surface stable.
		"tcache_read_warm_ns_count 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}

	code, health := scrape(t, "http://"+bound+"/healthz")
	if code != http.StatusOK || !strings.Contains(health, "ok role=edge") {
		t.Fatalf("/healthz = %d %q, want 200 ok role=edge", code, health)
	}

	// The same registry rides the wire protocol: legacy counter keys stay
	// plain, histograms appear under reserved suffixes.
	stats, err := r.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats["reads"] != 2 || stats["hits"] != 1 {
		t.Fatalf("wire stats reads=%d hits=%d, want 2/1", stats["reads"], stats["hits"])
	}
	if _, ok := stats["read_warm_ns|hsum"]; !ok {
		t.Fatalf("wire stats missing flat histogram key read_warm_ns|hsum: %v", stats)
	}
}

// TestWithTelemetryClientHistograms: the in-process hooks — ReadTxn,
// Update, warm/cold path, and wire round trips — all record into an
// attached Telemetry.
func TestWithTelemetryClientHistograms(t *testing.T) {
	ctx := context.Background()
	d := tcache.OpenDB()
	defer d.Close()
	addr, stopDB, err := tcache.ServeDB(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stopDB()
	r, err := tcache.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	tel := tcache.NewTelemetry()
	c, err := tcache.NewCache(r, tcache.WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The cache's own Update would install "tk" (no cold read at all),
	// so the key is written at the database and a second key through the
	// cache.
	if err := d.Update(ctx, func(tx *tcache.Tx) error {
		return tx.Set("tk", tcache.Value("v1"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Update(ctx, func(tx *tcache.Tx) error {
		return tx.Set("tk2", tcache.Value("v1"))
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := c.ReadTxn(ctx, func(tx *tcache.ReadTx) error {
			_, err := tx.Get(ctx, "tk")
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}

	snap := tel.Snapshot()
	if snap.ReadTxn.Count != 2 {
		t.Errorf("ReadTxn.Count = %d, want 2", snap.ReadTxn.Count)
	}
	if snap.Update.Count != 1 {
		t.Errorf("Update.Count = %d, want 1", snap.Update.Count)
	}
	if snap.RoundTrip.Count == 0 {
		t.Error("RoundTrip.Count = 0, want > 0")
	}
	if snap.ReadWarm.Count != 1 || snap.ReadCold.Count != 1 {
		t.Errorf("ReadWarm=%d ReadCold=%d, want 1/1", snap.ReadWarm.Count, snap.ReadCold.Count)
	}
	if snap.ReadTxn.P99 <= 0 || snap.ReadTxn.Max < snap.ReadTxn.P50 {
		t.Errorf("implausible ReadTxn quantiles: %+v", snap.ReadTxn)
	}

	var sb strings.Builder
	if err := tel.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "tcache_client_read_txn_ns_count 2") {
		t.Errorf("WritePrometheus missing client_read_txn_ns_count:\n%s", sb.String())
	}
}
