// Command tcache-load drives a live tdbd + tcached deployment with the
// paper's §IV workload shape (clustered 5-object transactions, a given
// update/read mix) and reports throughput, abort rate, and latency
// percentiles. It is the real-time counterpart of the simulation harness:
// use it to measure an actual deployment on real hardware.
//
// Usage:
//
//	tcache-load -db 127.0.0.1:7070 -cache 127.0.0.1:7071 \
//	            -duration 10s -readers 8 -updaters 2 -objects 2000
//
// With -cluster, readers attach one local T-Cache to a whole fleet of
// tcached nodes through the consistent-hash routing tier, and updates
// commit through the same tier (relayed by an edge node to the
// database):
//
//	tcache-load -db 127.0.0.1:7070 -cluster edge1:7071,edge2:7071,edge3:7071
//
// All writes go through the unified tcache.Updater API — read-modify-
// write closures validated and committed in one round trip, conflicts
// retried with jittered backoff. -write-mix additionally turns the given
// fraction of every reader's transactions into such closures, modelling
// edge clients that both read and write:
//
//	tcache-load -cluster edge1:7071,edge2:7071 -write-mix 0.1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tcache"
	"tcache/internal/cluster"
	"tcache/internal/kv"
	"tcache/internal/telemetry"
	"tcache/internal/transport"
	"tcache/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tcache-load:", err)
		os.Exit(1)
	}
}

// counters is the run's tally: one latency sample per committed update
// and per read-only transaction (committed or aborted), so the
// histograms' counts are the transaction counts.
type counters struct {
	aborts    atomic.Uint64
	readLat   telemetry.Histogram
	updateLat telemetry.Histogram
}

// latency renders s as "median [p10,p90] (n=N)" in microseconds.
func latency(s telemetry.HistogramSnapshot) string {
	if s.Count() == 0 {
		return "empty"
	}
	us := func(q float64) float64 { return float64(s.Quantile(q)) / 1e3 }
	return fmt.Sprintf("%.4g [%.4g,%.4g] (n=%d)", us(0.5), us(0.1), us(0.9), s.Count())
}

// updateTxn runs one read-modify-write transaction over keys through the
// unified API: read every key, write every key.
func updateTxn(ctx context.Context, up tcache.Updater, keys []kv.Key, tag string) error {
	return up.Update(ctx, func(tx *tcache.Tx) error {
		for _, k := range keys {
			if _, _, err := tx.Get(ctx, k); err != nil {
				return err
			}
		}
		for _, k := range keys {
			if err := tx.Set(k, kv.Value(tag)); err != nil {
				return err
			}
		}
		return nil
	})
}

func run() error {
	ctx := context.Background()
	var (
		dbAddr      = flag.String("db", "127.0.0.1:7070", "tdbd address")
		cacheAddr   = flag.String("cache", "127.0.0.1:7071", "tcached address")
		clusterFl   = flag.String("cluster", "", "comma-separated tcached fleet; reads AND updates route through the cluster tier instead of -cache/-db")
		duration    = flag.Duration("duration", 10*time.Second, "load duration")
		readers     = flag.Int("readers", 8, "read-only client goroutines")
		updaters    = flag.Int("updaters", 2, "update client goroutines")
		writeMix    = flag.Float64("write-mix", 0, "fraction of each reader's transactions that are read-modify-write closures through the unified Update API (0..1)")
		objects     = flag.Int("objects", 2000, "object count")
		clusterSize = flag.Int("cluster-size", 5, "workload cluster size (objects per affinity cluster)")
		txnSize     = flag.Int("txn", 5, "objects per transaction")
		seed        = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()

	clusterAddrs := cluster.SplitAddrs(*clusterFl)

	// The datacenter-side handle: pings, seeding, and the updater used
	// when no cluster tier is configured.
	remote, err := tcache.Dial(ctx, *dbAddr, tcache.WithPoolSize(*updaters+1))
	if err != nil {
		return err
	}
	defer remote.Close()
	if err := remote.Ping(ctx); err != nil {
		return fmt.Errorf("tdbd unreachable: %w", err)
	}

	// Seed the key space through the unified API, chunked so each commit
	// is one round trip instead of one per object.
	gen := &workload.PerfectClusters{Objects: *objects, ClusterSize: *clusterSize, TxnSize: *txnSize}
	fmt.Printf("seeding %d objects...\n", *objects)
	all := workload.AllObjectKeys(*objects)
	const seedChunk = 100
	for start := 0; start < len(all); start += seedChunk {
		chunk := all[start:min(start+seedChunk, len(all))]
		if err := remote.Update(ctx, func(tx *tcache.Tx) error {
			for _, k := range chunk {
				if err := tx.Set(k, kv.Value("seed")); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return fmt.Errorf("seed chunk at %d: %w", start, err)
		}
	}

	// In cluster mode every reader shares one local T-Cache attached to
	// the fleet, and updates commit through the same tier (an edge node
	// relays them to the database); otherwise readers send each
	// transaction to the single tcached as one request and updates go
	// straight to the database.
	var clusterCache *tcache.ClusterCache
	var updater tcache.Updater = remote
	if len(clusterAddrs) > 0 {
		clusterCache, err = tcache.DialCluster(ctx, clusterAddrs)
		if err != nil {
			return fmt.Errorf("dial cluster: %w", err)
		}
		defer clusterCache.Close()
		updater = clusterCache
		fmt.Printf("routing reads and updates over %d-node cluster tier\n", len(clusterAddrs))
	}

	var (
		c    counters
		wg   sync.WaitGroup
		stop = time.Now().Add(*duration)
	)
	// Workers share a deadline so conflict-retry loops cannot overrun the
	// measurement window.
	loadCtx, cancelLoad := context.WithDeadline(ctx, stop)
	defer cancelLoad()

	runUpdate := func(rng *rand.Rand, u int) bool {
		keys := dedup(gen.Pick(rng))
		t0 := time.Now()
		err := updateTxn(loadCtx, updater, keys, fmt.Sprintf("u%d-%d", u, rng.Int63()))
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "update:", err)
			}
			return false
		}
		c.updateLat.ObserveSince(t0)
		return true
	}

	for u := 0; u < *updaters; u++ {
		u := u
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(u)))
			for time.Now().Before(stop) {
				if !runUpdate(rng, u) {
					return
				}
			}
		}()
	}

	for r := 0; r < *readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + 1000 + int64(r)))
			runTxn := func(keys []kv.Key) error {
				return clusterCache.ReadTxn(loadCtx, func(tx *tcache.ReadTx) error {
					_, err := tx.GetMulti(loadCtx, keys...)
					return err
				})
			}
			if clusterCache == nil {
				cli, err := transport.DialDB(ctx, *cacheAddr, 1)
				if err != nil {
					fmt.Fprintln(os.Stderr, "dial cache:", err)
					return
				}
				defer cli.Close()
				runTxn = func(keys []kv.Key) error {
					// One round trip per transaction (OpReadTxn).
					_, err := cli.ReadTxn(loadCtx, keys)
					return err
				}
			}
			for time.Now().Before(stop) {
				if *writeMix > 0 && rng.Float64() < *writeMix {
					// This transaction writes: a read-modify-write closure
					// through the same tier the reads use.
					if !runUpdate(rng, 1000+r) {
						return
					}
					continue
				}
				keys := gen.Pick(rng)
				t0 := time.Now()
				if err := runTxn(keys); err != nil {
					if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
						return
					}
					if !errors.Is(err, transport.ErrAborted) && !errors.Is(err, tcache.ErrTxnAborted) {
						fmt.Fprintln(os.Stderr, "read:", err)
						return
					}
					c.aborts.Add(1)
				}
				c.readLat.ObserveSince(t0)
			}
		}()
	}
	wg.Wait()

	secs := duration.Seconds()
	updates, reads := c.updateLat.Snapshot(), c.readLat.Snapshot()
	fmt.Printf("\n--- %v of load ---\n", *duration)
	fmt.Printf("update txns:     %8d (%.0f/s), latency[us] %s\n",
		updates.Count(), float64(updates.Count())/secs, latency(updates))
	fmt.Printf("read txns:       %8d (%.0f/s), latency[us] %s\n",
		reads.Count(), float64(reads.Count())/secs, latency(reads))
	fmt.Printf("aborted (stale): %8d (%.2f%%)\n",
		c.aborts.Load(), 100*float64(c.aborts.Load())/float64(max(1, reads.Count())))

	if clusterCache != nil {
		st := clusterCache.Stats(ctx)
		local := st.Local
		if local.Reads > 0 {
			fmt.Printf("local cache hit ratio: %.3f (detected %d, retries %d, floor refetches %d, commit installs %d)\n",
				local.HitRatio(), local.Detected, local.Retries, local.FloorRefetches, local.CommitInstalls)
		}
		for _, ns := range st.Nodes {
			hits, misses := ns.Stats.Counters["hits"], ns.Stats.Counters["misses"]
			ratio := 0.0
			if hits+misses > 0 {
				ratio = float64(hits) / float64(hits+misses)
			}
			fmt.Printf("node %-22s [%s] hit ratio %.3f (reads %d, floor refetches %d)\n",
				ns.Addr, ns.State, ratio, ns.Stats.Counters["reads"], ns.Stats.Counters["floor_refetches"])
		}
		return nil
	}
	cli, err := transport.DialDB(ctx, *cacheAddr, 1)
	if err == nil {
		defer cli.Close()
		if s, err := cli.Stats(ctx); err == nil {
			hits, misses := s.Counters["hits"], s.Counters["misses"]
			if hits+misses > 0 {
				fmt.Printf("cache hit ratio: %.3f (detected %d, retries %d)\n",
					float64(hits)/float64(hits+misses), s.Counters["detected"], s.Counters["retries"])
			}
		}
	}
	return nil
}

func dedup(keys []kv.Key) []kv.Key {
	seen := make(map[kv.Key]struct{}, len(keys))
	out := keys[:0:len(keys)]
	for _, k := range keys {
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, k)
	}
	return out
}
