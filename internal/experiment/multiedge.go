package experiment

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"tcache/internal/core"
	"tcache/internal/workload"
)

// MultiEdgeParams parameterizes the multi-edge experiment: M independent
// edge caches front ONE datacenter database, each with its own lossy
// asynchronous invalidation link and its own client population, while a
// shared update stream mutates the key space under all of them — the
// paper's deployment picture (many edges, one database) rather than the
// single-column harness of the other figures. Each edge maintains
// cache-serializability for ITS clients only (per-edge eq.1/eq.2);
// different edges may commit different — individually serializable —
// snapshots, which is exactly the paper's consistency model.
type MultiEdgeParams struct {
	// Edges is the edge-cache count M.
	Edges int
	// Objects, ClusterSize and TxnSize shape the §IV workload.
	Objects     int
	ClusterSize int
	TxnSize     int
	// Strategy is every edge's inconsistency reaction.
	Strategy core.Strategy
	// DropRate is each edge's invalidation-link loss probability (the
	// links' randomness is independent; their delay is §IV's).
	DropRate float64
	// Drive's UpdateRate is the SHARED write stream; its ReadRate is per
	// edge.
	Drive Drive
	// Warmup runs unmeasured; MeasureFor is the measured window.
	Warmup     time.Duration
	MeasureFor time.Duration
	Seed       int64
}

// DefaultMultiEdgeParams mirrors §IV (100 upd/s, 500 rd/s per edge,
// 20% invalidation loss) across 4 edges.
func DefaultMultiEdgeParams() MultiEdgeParams {
	return MultiEdgeParams{
		Edges: 4, Objects: 2000, ClusterSize: 5, TxnSize: 5,
		Strategy: core.StrategyRetry,
		DropRate: 0.2, Drive: Drive{UpdateRate: 100, ReadRate: 500},
		Warmup: 5 * time.Second, MeasureFor: 60 * time.Second, Seed: 1,
	}
}

// QuickMultiEdgeParams is the scaled-down smoke variant.
func QuickMultiEdgeParams() MultiEdgeParams {
	p := DefaultMultiEdgeParams()
	p.Edges = 3
	p.Objects = 400
	p.Warmup = 2 * time.Second
	p.MeasureFor = 8 * time.Second
	return p
}

// MultiEdgeResult is one run: M.Edges is the per-edge breakdown, M
// itself the fleet's totals.
type MultiEdgeResult struct {
	Params MultiEdgeParams
	M      Measurement
}

// RunMultiEdge executes the multi-edge experiment: one trial over a
// column with p.Edges edges, under §IV's dependency-list bound of 5.
func RunMultiEdge(ctx context.Context, p MultiEdgeParams) (*MultiEdgeResult, error) {
	gen := &workload.PerfectClusters{Objects: p.Objects, ClusterSize: p.ClusterSize, TxnSize: p.TxnSize}
	m, _, err := trial{
		cfg: ColumnConfig{
			Edges: p.Edges, DepBound: 5, Strategy: p.Strategy,
			DropRate: p.DropRate, Seed: p.Seed,
		},
		upd: gen, read: gen, keys: workload.AllObjectKeys(p.Objects),
		drive: p.Drive, warmup: p.Warmup, window: p.MeasureFor,
	}.run(ctx)
	if err != nil {
		return nil, err
	}
	return &MultiEdgeResult{Params: p, M: m}, nil
}

// Table renders the per-edge breakdown, paper-style: each edge's
// committed/aborted split, its inconsistency ratio, and its hit ratio
// under the shared write stream, then the same over all edges.
func (r *MultiEdgeResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multi-edge — %d edges × shared %.0f upd/s, %.0f rd/s per edge, drop %.0f%%, %v\n",
		r.Params.Edges, r.Params.Drive.UpdateRate, r.Params.Drive.ReadRate,
		100*r.Params.DropRate, r.Params.Strategy)
	fmt.Fprintf(&b, "%5s %9s %9s %8s %8s %9s %7s\n",
		"edge", "readtxns", "committed", "abort%", "incons%", "detected", "hit%")
	row := func(label string, m Measurement) {
		fmt.Fprintf(&b, "%5s %9d %9d %8.2f %8.3f %9d %7.2f\n",
			label, m.Mon.ReadOnly(), m.Mon.Committed(),
			m.AbortedPct(), m.InconsistencyRatio(),
			m.Cache.Detected, 100*m.HitRatio())
	}
	for e, m := range r.M.Edges {
		row(strconv.Itoa(e), m)
	}
	row("all", r.M)
	return b.String()
}
