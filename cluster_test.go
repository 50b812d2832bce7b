package tcache_test

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"tcache"
)

// TestClusterStatsReportsUnscrapedNodes: a node the scrape skips —
// ejected, or never connected — must carry an explanatory Err in the
// breakdown, never a silently nil Stats with an empty Err (regression:
// such nodes were skipped with both fields zero, indistinguishable from
// a healthy idle node).
func TestClusterStatsReportsUnscrapedNodes(t *testing.T) {
	ctx := context.Background()
	d := tcache.OpenDB()
	t.Cleanup(func() { d.Close() })
	dbAddr, stopDB, err := tcache.ServeDB(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopDB)
	e, err := tcache.ServeEdge(ctx, dbAddr, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)

	// Reserve a port and release it: the address refuses connections, so
	// the node starts ejected and is never scraped.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	cc, err := tcache.DialCluster(ctx, []string{e.Addr(), deadAddr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cc.Close)

	st := cc.Stats(ctx)
	if len(st.Nodes) != 2 {
		t.Fatalf("got %d nodes, want 2", len(st.Nodes))
	}
	live, dead := st.Nodes[0], st.Nodes[1]
	if live.Err != "" || live.Stats.Counters == nil {
		t.Errorf("live node: Err=%q Stats=%v, want scraped cleanly", live.Err, live.Stats)
	}
	if !reflect.DeepEqual(dead.Stats, tcache.ServerStats{}) {
		t.Errorf("dead node: Stats=%v, want empty", dead.Stats)
	}
	if dead.Err == "" {
		t.Errorf("dead node: empty Err, want an explanation (state=%s)", dead.State)
	}
}

// clusterRig is the full public-API cluster deployment on loopback: a
// served DB, three edges, and a ClusterCache dialed to the fleet.
type clusterRig struct {
	db    *tcache.DB
	edges []*tcache.Edge
	cc    *tcache.ClusterCache
}

func newClusterRig(t *testing.T, nEdges int, opts ...tcache.ClusterOption) *clusterRig {
	t.Helper()
	ctx := context.Background()
	d := tcache.OpenDB(tcache.WithDepListBound(5))
	t.Cleanup(func() { d.Close() })
	dbAddr, stop, err := tcache.ServeDB(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	r := &clusterRig{db: d}
	addrs := make([]string, nEdges)
	for i := range addrs {
		// Each edge times its reads, as tcached's does.
		e, err := tcache.ServeEdge(ctx, dbAddr, "127.0.0.1:0", tcache.WithTelemetry(tcache.NewTelemetry()))
		if err != nil {
			t.Fatal(err)
		}
		r.edges = append(r.edges, e)
		addrs[i] = e.Addr()
	}
	t.Cleanup(func() {
		for _, e := range r.edges {
			if e != nil {
				e.Close()
			}
		}
	})
	// The rig's defaults first, so a test's own options override them.
	opts = append([]tcache.ClusterOption{
		tcache.WithClusterHealth(25*time.Millisecond, 500*time.Millisecond),
		tcache.WithClusterFailThreshold(2),
	}, opts...)
	cc, err := tcache.DialCluster(ctx, addrs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cc.Close)
	r.cc = cc
	return r
}

func (r *clusterRig) seed(t *testing.T, n int) []tcache.Key {
	t.Helper()
	keys := make([]tcache.Key, n)
	if err := r.db.Update(context.Background(), func(tx *tcache.Tx) error {
		for i := range keys {
			keys[i] = tcache.Key(fmt.Sprintf("object-%d", i))
			if err := tx.Set(keys[i], tcache.Value("seed")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestClusterReadTxnEndToEnd: the public read API works unchanged over
// a 3-node fleet, and the aggregated stats expose the per-node
// breakdown.
func TestClusterReadTxnEndToEnd(t *testing.T) {
	ctx := context.Background()
	r := newClusterRig(t, 3)
	keys := r.seed(t, 30)

	if err := r.cc.ReadTxn(ctx, func(tx *tcache.ReadTx) error {
		vals, err := tx.GetMulti(ctx, keys...)
		if err != nil {
			return err
		}
		for i, v := range vals {
			if string(v) != "seed" {
				return fmt.Errorf("key %s = %q", keys[i], v)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Warm re-read is a pure local hit.
	if err := r.cc.ReadTxn(ctx, func(tx *tcache.ReadTx) error {
		_, err := tx.Get(ctx, keys[0])
		return err
	}); err != nil {
		t.Fatal(err)
	}

	st := r.cc.Stats(ctx)
	if st.Local.Hits == 0 {
		t.Fatalf("no local hits recorded: %+v", st.Local)
	}
	if len(st.Nodes) != 3 {
		t.Fatalf("stats cover %d nodes, want 3", len(st.Nodes))
	}
	// The aggregate adds counters, histograms and gauges node by node.
	var nodeReads, nodeColdReads, nodeEntries uint64
	served := 0
	for _, ns := range st.Nodes {
		if ns.State != "up" {
			t.Fatalf("node %s state %s, want up", ns.Addr, ns.State)
		}
		nodeReads += ns.Stats.Counters["reads"]
		cold := ns.Stats.Histograms["read_cold_ns"]
		nodeColdReads += cold.Count()
		nodeEntries += ns.Stats.Gauges["cache_entries"]
		if ns.Stats.Counters["reads"] > 0 {
			served++
		}
	}
	if st.Aggregate.Counters["reads"] != nodeReads {
		t.Fatalf("aggregate reads %d != summed per-node %d", st.Aggregate.Counters["reads"], nodeReads)
	}
	if cold := st.Aggregate.Histograms["read_cold_ns"]; nodeColdReads == 0 || cold.Count() != nodeColdReads {
		t.Fatalf("aggregate read_cold_ns count %d, summed per-node %d (want equal, nonzero)", cold.Count(), nodeColdReads)
	}
	if got := st.Aggregate.Gauges["cache_entries"]; nodeEntries == 0 || got != nodeEntries {
		t.Fatalf("aggregate cache_entries %d, summed per-node %d (want equal, nonzero)", got, nodeEntries)
	}
	if served < 2 {
		t.Fatalf("only %d of 3 nodes served reads — the ring is not spreading 30 keys", served)
	}
	if nodes := r.cc.Nodes(); len(nodes) != 3 || nodes[0].State != "up" {
		t.Fatalf("Nodes() = %+v", nodes)
	}
}

// TestClusterSurvivesNodeKill: killing one node must leave the cluster
// serving 100% of the keys through the public API (local entries are
// invalidated each round so every read exercises the routing tier).
func TestClusterSurvivesNodeKill(t *testing.T) {
	ctx := context.Background()
	r := newClusterRig(t, 3)
	keys := r.seed(t, 30)

	readAll := func() error {
		// Force every key through the router: evict the local copies.
		for _, k := range keys {
			r.cc.Invalidate(k, tcache.Version{Counter: ^uint64(0) - 1})
		}
		return r.cc.ReadTxn(ctx, func(tx *tcache.ReadTx) error {
			vals, err := tx.GetMulti(ctx, keys...)
			if err != nil {
				return err
			}
			if len(vals) != len(keys) {
				return fmt.Errorf("%d of %d keys resolved", len(vals), len(keys))
			}
			return nil
		})
	}
	if err := readAll(); err != nil {
		t.Fatal(err)
	}

	r.edges[1].Close()
	r.edges[1] = nil

	// Until ejection settles a read may catch the dying node; the
	// cluster must converge to serving everything from the survivors.
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := readAll()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never recovered from node kill: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// And it keeps serving.
	for i := 0; i < 5; i++ {
		if err := readAll(); err != nil {
			t.Fatalf("read %d after recovery: %v", i, err)
		}
	}
	st := r.cc.Stats(ctx)
	if st.Nodes[1].State != "ejected" {
		t.Fatalf("killed node state %s, want ejected", st.Nodes[1].State)
	}
}
