package tcache_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"tcache"
	"tcache/internal/telemetry"
	"tcache/internal/transport"
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
// OpStats carries the same registry.
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

	// The same registry rides the wire protocol, histograms included.
	stats, err := r.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counters["reads"] != 2 || stats.Counters["hits"] != 1 {
		t.Fatalf("wire stats reads=%d hits=%d, want 2/1", stats.Counters["reads"], stats.Counters["hits"])
	}
	if _, ok := stats.Histograms["read_warm_ns"]; !ok {
		t.Fatalf("wire stats missing histogram read_warm_ns: %v", stats)
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
	readTxn, update := snap.Histograms["client_read_txn_ns"], snap.Histograms["client_update_ns"]
	roundTrip := snap.Histograms["client_round_trip_ns"]
	warm, cold := snap.Histograms["client_read_warm_ns"], snap.Histograms["client_read_cold_ns"]
	if readTxn.Count() != 2 {
		t.Errorf("ReadTxn.Count = %d, want 2", readTxn.Count())
	}
	if update.Count() != 1 {
		t.Errorf("Update.Count = %d, want 1", update.Count())
	}
	if roundTrip.Count() == 0 {
		t.Error("RoundTrip.Count = 0, want > 0")
	}
	if warm.Count() != 1 || cold.Count() != 1 {
		t.Errorf("ReadWarm=%d ReadCold=%d, want 1/1", warm.Count(), cold.Count())
	}
	if readTxn.P99() == 0 || readTxn.Max() < readTxn.P50() {
		t.Errorf("implausible ReadTxn quantiles: p50=%d p99=%d max=%d", readTxn.P50(), readTxn.P99(), readTxn.Max())
	}

	var sb strings.Builder
	if err := tel.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "tcache_client_read_txn_ns_count 2") {
		t.Errorf("WritePrometheus missing client_read_txn_ns_count:\n%s", sb.String())
	}
}

// TestOpStatsMatchesMetrics: a quiescent database node and edge answer
// OpStats and /metrics with the same numbers, matched by registry name —
// counter against tcache_<n>_total, gauge against tcache_<n>, histogram
// count and sum against _count and _sum — and both surfaces carry
// exactly the registry's names.
func TestOpStatsMatchesMetrics(t *testing.T) {
	ctx := context.Background()
	d := tcache.OpenDB()
	defer d.Close()
	dbNode, err := transport.ServeDB(d.Core(), transport.DBNodeConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer dbNode.Close()
	e, err := tcache.ServeEdge(ctx, dbNode.Addr(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	dbCli, err := tcache.Dial(ctx, dbNode.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dbCli.Close()
	edgeCli, err := tcache.Dial(ctx, e.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer edgeCli.Close()
	for i := 0; i < 3; i++ {
		if err := dbCli.Update(ctx, func(tx *tcache.Tx) error {
			return tx.Set(tcache.Key(fmt.Sprintf("k%d", i)), tcache.Value("v"))
		}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			if _, _, err := edgeCli.ReadItem(ctx, tcache.Key(fmt.Sprintf("k%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, node := range []struct {
		name  string
		reg   *telemetry.Registry
		cli   *tcache.Remote
		serve func(string) (string, func(), error)
	}{
		{"db", dbNode.Registry(), dbCli, dbNode.ServeMetrics},
		{"edge", e.Registry(), edgeCli, e.ServeMetrics},
	} {
		t.Run(node.name, func(t *testing.T) {
			bound, stop, err := node.serve("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
			opStats := func() telemetry.Snapshot {
				stats, err := node.cli.Stats(ctx)
				if err != nil {
					t.Fatal(err)
				}
				return stats
			}
			// Invalidation pushes land asynchronously: take the scrape
			// between two equal OpStats answers.
			var snap telemetry.Snapshot
			var prom map[string]promFamily
			for try := 0; ; try++ {
				before := opStats()
				_, body := scrape(t, "http://"+bound+"/metrics")
				prom = parseProm(t, body)
				if snap = opStats(); reflect.DeepEqual(before, snap) {
					break
				}
				if try == 50 {
					t.Fatal("OpStats never settled")
				}
				time.Sleep(10 * time.Millisecond)
			}

			names := node.reg.Names()
			var opNames, promNames []string
			for n := range snap.Counters {
				opNames = append(opNames, n)
			}
			for n := range snap.Gauges {
				opNames = append(opNames, n)
			}
			for n := range snap.Histograms {
				opNames = append(opNames, n)
			}
			for n := range prom {
				promNames = append(promNames, n)
			}
			sort.Strings(opNames)
			sort.Strings(promNames)
			if !reflect.DeepEqual(opNames, names) || !reflect.DeepEqual(promNames, names) {
				t.Fatalf("name sets differ:\nregistry %v\nOpStats  %v\n/metrics %v", names, opNames, promNames)
			}
			for _, n := range names {
				f := prom[n]
				if v, ok := snap.Counters[n]; ok {
					if f.kind != "counter" || f.values["_total"] != v {
						t.Errorf("counter %s: OpStats %d, /metrics %+v", n, v, f)
					}
				} else if v, ok := snap.Gauges[n]; ok {
					if f.kind != "gauge" || f.values[""] != v {
						t.Errorf("gauge %s: OpStats %d, /metrics %+v", n, v, f)
					}
				} else {
					h := snap.Histograms[n]
					if f.kind != "histogram" || f.values["_count"] != h.Count() || f.values["_sum"] != h.Sum {
						t.Errorf("histogram %s: OpStats count %d sum %d, /metrics %+v", n, h.Count(), h.Sum, f)
					}
				}
			}
		})
	}
}

// promFamily is one metric family of a Prometheus text scrape: its
// # TYPE and its unlabelled samples by suffix ("_total", "", "_count",
// "_sum").
type promFamily struct {
	kind   string
	values map[string]uint64
}

// parseProm reads a tcache_-prefixed Prometheus text scrape into its
// families, keyed by registry name.
func parseProm(t *testing.T, body string) map[string]promFamily {
	t.Helper()
	out := make(map[string]promFamily)
	var name, full string
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if typ, ok := strings.CutPrefix(line, "# TYPE "); ok {
			var kind string
			full, kind, _ = strings.Cut(typ, " ")
			name = strings.TrimPrefix(full, "tcache_")
			if kind == "counter" {
				name = strings.TrimSuffix(name, "_total")
			}
			out[name] = promFamily{kind: kind, values: make(map[string]uint64)}
			continue
		}
		sample, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(sample, "{") {
			continue
		}
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil || !strings.HasPrefix(sample, "tcache_"+name) {
			t.Fatalf("unexpected /metrics line %q", line)
		}
		out[name].values[strings.TrimPrefix(sample, "tcache_"+name)] = v
	}
	return out
}
