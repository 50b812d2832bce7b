// Command tdbd runs the backend transactional database as a TCP daemon.
//
// Usage:
//
//	tdbd [-listen 127.0.0.1:7070] [-dep-bound 5]
//	     [-wal-dir /var/lib/tdbd/wal] [-wal-sync=true]
//	     [-wal-segment-size 67108864]
//	     [-metrics-addr 127.0.0.1:9070]
//
// With -metrics-addr an admin HTTP listener serves /metrics (Prometheus
// text exposition: transaction counters, commit and WAL-fsync latency
// histograms, replication lag), role-aware /healthz (a standby answers
// 200 and says so; a sticky WAL error turns it 503), and /debug/pprof.
//
// Without -wal-dir the database is purely in-memory. With it, commits
// are written to a segmented write-ahead log before being applied, and
// a restart pointed at the same directory recovers every acknowledged
// transaction — values, versions, and dependency lists — so the edge
// floors (eq. 1/eq. 2) stay monotone across crashes. A background
// snapshot cuts the log whenever the log outgrows the newest one.
//
// Clients are cmd/tcached (edge caches that fill misses from this server
// and subscribe to its invalidation stream) and cmd/tcache-cli.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"tcache/internal/db"
	"tcache/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tdbd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen   = flag.String("listen", "127.0.0.1:7070", "address to listen on")
		depBound = flag.Int("dep-bound", 5, "dependency-list length k per object (0 disables, -1 unbounded)")
		walDir   = flag.String("wal-dir", "", "write-ahead-log directory; empty = in-memory only")
		walSync  = flag.Bool("wal-sync", true, "fsync commit batches before acknowledging (requires -wal-dir)")
		segSize  = flag.Int64("wal-segment-size", 0, "log segment rotation threshold in bytes, 0 = default 64 MiB")

		metricsAddr = flag.String("metrics-addr", "", "admin HTTP listener for /metrics, /healthz, /debug/pprof (empty = disabled)")

		nodeID       = flag.Uint("node-id", 0, "version namespace of this node's commits (give each replica its own)")
		replicaOf    = flag.String("replica-of", "", "run as a warm standby replicating from the primary at this address")
		advertise    = flag.String("advertise", "", "replica identity registered with the primary (default: the bound listen address)")
		replMinSync  = flag.Int("repl-min-sync", 0, "primary: each commit waits for this many standby acks (0 = asynchronous replication)")
		promoteAfter = flag.Duration("promote-after", 0, "standby: promote automatically once the primary has been unreachable this long (0 = never)")
	)
	flag.Parse()

	cfg := db.Config{DepBound: *depBound, NodeID: uint32(*nodeID), ReplMinSync: *replMinSync}
	var d *db.DB
	if *walDir != "" {
		cfg.WALSync = *walSync
		cfg.WALSegmentSize = *segSize
		var err error
		d, err = db.Recover(cfg, *walDir)
		if err != nil {
			return err
		}
		info := d.Recovery()
		log.Printf("tdbd: recovered %s: %d snapshot entries + %d records over %d segments (counter=%d, torn tail %d bytes)",
			*walDir, info.SnapshotEntries, info.Records, info.Segments, info.Counter, info.TornBytes)
	} else {
		d = db.Open(cfg)
	}

	// tcache.ServeDB runs this same node; the standby role, when asked
	// for, is set before the first request is accepted.
	node, err := transport.ServeDB(d, transport.DBNodeConfig{
		Listen: *listen,
		Logf:   log.Printf,
		Standby: transport.StandbyConfig{
			Primary:      *replicaOf,
			Name:         *advertise,
			PromoteAfter: *promoteAfter,
		},
	})
	if err != nil {
		_ = d.Close()
		return err
	}
	// shutdown stops the node, then the database. A Close error means
	// acknowledged commits may not have reached disk; exit non-zero so
	// supervisors notice.
	shutdown := func() error {
		node.Close()
		if err := d.Close(); err != nil {
			return fmt.Errorf("close database: %w", err)
		}
		return nil
	}

	if *metricsAddr != "" {
		mbound, mstop, merr := node.ServeMetrics(*metricsAddr)
		if merr != nil {
			_ = shutdown()
			return merr
		}
		defer mstop()
		log.Printf("tdbd: metrics on http://%s/metrics", mbound)
	}
	log.Printf("tdbd: serving on %s (dep-bound=%d, wal=%q sync=%v, role=%s)",
		node.Addr(), *depBound, *walDir, *walSync, d.Role())
	if *replicaOf != "" {
		log.Printf("tdbd: standby of %s (promote-after=%s)", *replicaOf, *promoteAfter)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("tdbd: shutting down")
	return shutdown()
}
