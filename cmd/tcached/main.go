// Command tcached runs a T-Cache edge server as a TCP daemon: it fills
// misses from a tdbd backend, subscribes to its invalidation stream, and
// offers clients §III-B's validated read-only transactions, each one
// request (OpReadTxn) that begins and ends on the server.
//
// Usage:
//
//	tcached [-listen 127.0.0.1:7071] [-db 127.0.0.1:7070] \
//	        [-strategy retry|evict|abort] [-ttl 0] [-shards 0] \
//	        [-max-bytes 0] [-evict lru|clock|cost] [-admission] \
//	        [-name tcached-PID] [-backend-conns 4] \
//	        [-metrics-addr 127.0.0.1:9071]
//
// With -metrics-addr an admin HTTP listener serves /metrics (hit/miss
// counters, warm/cold read latency histograms, relay and conn-pool
// gauges), /healthz (role=edge), and /debug/pprof. The same registry is
// served over the wire protocol's OpStats, so tcache-cli stats and top
// see it too.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"tcache/internal/core"
	"tcache/internal/evict"
	"tcache/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tcached:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen   = flag.String("listen", "127.0.0.1:7071", "address to listen on")
		dbAddr   = flag.String("db", "127.0.0.1:7070", "tdbd backend address")
		strategy = flag.String("strategy", "retry", "inconsistency strategy: abort, evict, or retry")
		ttl      = flag.Duration("ttl", 0, "cache entry TTL (0 = none)")
		shards   = flag.Int("shards", 0, "cache lock stripes (0 = GOMAXPROCS; 1 = single mutex)")
		maxBytes = flag.Int64("max-bytes", 0, "cache memory budget in bytes, keys+values+overhead (0 = unbounded)")
		policy   = flag.String("evict", "lru", "eviction policy under -max-bytes: lru, clock, or cost")
		admit    = flag.Bool("admission", false, "enable doorkeeper admission control (bounded caches only)")
		name     = flag.String("name", "", "subscriber name reported to the backend")
		pool     = flag.Int("backend-conns", 4, "backend connection pool size")

		metricsAddr = flag.String("metrics-addr", "", "admin HTTP listener for /metrics, /healthz, /debug/pprof (empty = disabled)")
	)
	flag.Parse()

	strat, err := parseStrategy(*strategy)
	if err != nil {
		return err
	}
	kind, err := evict.ParseKind(*policy)
	if err != nil {
		return err
	}
	if *name == "" {
		*name = fmt.Sprintf("tcached-%d", os.Getpid())
	}

	edge, err := transport.ServeEdge(context.Background(), transport.EdgeConfig{
		DB:     *dbAddr,
		Listen: *listen,
		Cache: core.Config{
			Strategy:  strat,
			TTL:       *ttl,
			MaxBytes:  *maxBytes,
			Policy:    kind,
			Admission: *admit,
			Shards:    *shards,
			// The daemon always times its read paths: the scrape surface is
			// the point of running it, and the instrumented warm hit stays
			// allocation-free (TestAllocBudgets' CoreWarmHitTelemetry row).
			Telemetry: core.NewTelemetry(),
		},
		Name:         *name,
		BackendConns: *pool,
		Logf:         log.Printf,
	})
	if err != nil {
		return err
	}
	defer edge.Close()
	budget := ""
	if *maxBytes > 0 {
		budget = fmt.Sprintf(", budget=%dB policy=%s", *maxBytes, kind)
	}
	log.Printf("tcached: serving on %s (backend=%s, strategy=%s, ttl=%v, shards=%d%s)",
		edge.Addr(), *dbAddr, strat, *ttl, edge.Cache().Shards(), budget)

	if *metricsAddr != "" {
		mbound, mstop, merr := edge.ServeMetrics(*metricsAddr)
		if merr != nil {
			return merr
		}
		defer mstop()
		log.Printf("tcached: metrics on http://%s/metrics", mbound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("tcached: shutting down")
	return nil
}

func parseStrategy(s string) (core.Strategy, error) {
	switch s {
	case "abort":
		return core.StrategyAbort, nil
	case "evict":
		return core.StrategyEvict, nil
	case "retry":
		return core.StrategyRetry, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q (want abort, evict, or retry)", s)
	}
}
