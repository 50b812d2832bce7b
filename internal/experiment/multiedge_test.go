package experiment

import (
	"context"
	"strings"
	"testing"

	"tcache/internal/core"
)

// TestMultiEdgeRuns: the multi-edge harness is deterministic, every edge
// serves traffic, and the ABORT strategy (no healing) shows the shared
// write stream actually reaching each edge's checks.
func TestMultiEdgeRuns(t *testing.T) {
	p := QuickMultiEdgeParams()
	p.Strategy = core.StrategyAbort
	res, err := RunMultiEdge(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.M.Edges) != p.Edges {
		t.Fatalf("edges = %d, want %d", len(res.M.Edges), p.Edges)
	}
	totalAborts := uint64(0)
	for i, e := range res.M.Edges {
		if e.Mon.ReadOnly() == 0 {
			t.Fatalf("edge %d classified no transactions", i)
		}
		if e.Cache.Hits == 0 {
			t.Fatalf("edge %d recorded no cache hits", i)
		}
		totalAborts += e.Mon.AbortedConsistent + e.Mon.AbortedInconsistent
	}
	if totalAborts == 0 {
		t.Fatal("no edge aborted anything under ABORT with a 20% lossy link — the write stream is not reaching the edges")
	}
	if !strings.Contains(res.Table(), "edge") {
		t.Fatal("table renders nothing")
	}

	// Same seed, same outcome: the harness is deterministic.
	res2, err := RunMultiEdge(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.M.Edges {
		if res.M.Edges[i].Mon != res2.M.Edges[i].Mon {
			t.Fatalf("edge %d diverged across identical runs:\n%+v\n%+v", i, res.M.Edges[i].Mon, res2.M.Edges[i].Mon)
		}
	}
}
