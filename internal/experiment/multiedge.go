package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"tcache/internal/chaos"
	"tcache/internal/clock"
	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/kv"
	"tcache/internal/monitor"
	"tcache/internal/telemetry"
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
	// DropRate, InvalDelay and InvalJitter shape each edge's
	// invalidation link (per-edge independent randomness).
	DropRate    float64
	InvalDelay  time.Duration
	InvalJitter time.Duration
	// UpdateRate is the SHARED write stream, in txns/s; ReadRate is the
	// per-edge read-only rate.
	UpdateRate float64
	ReadRate   float64
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
		DropRate: 0.2, InvalDelay: 10 * time.Millisecond, InvalJitter: 40 * time.Millisecond,
		UpdateRate: 100, ReadRate: 500,
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

// EdgeMeasurement is one edge's measured window.
type EdgeMeasurement struct {
	Edge  int
	Mon   monitor.Stats
	Cache core.MetricsSnapshot
}

// InconsistencyPct is the edge's committed-inconsistent share.
func (e EdgeMeasurement) InconsistencyPct() float64 { return e.Mon.InconsistencyRatio() }

// AbortPct is the edge's aborted share of classified transactions.
func (e EdgeMeasurement) AbortPct() float64 {
	return pct(e.Mon.AbortedConsistent+e.Mon.AbortedInconsistent, e.Mon.ReadOnly())
}

// MultiEdgeResult is the per-edge breakdown of one run.
type MultiEdgeResult struct {
	Params MultiEdgeParams
	Edges  []EdgeMeasurement
}

// edge is one edge column sharing the run's database.
type multiEdge struct {
	cache *core.Cache
	mon   *monitor.Monitor
	rng   *rand.Rand
	gen   *workload.PerfectClusters
	next  kv.TxnID
}

// RunMultiEdge executes the multi-edge experiment on the simulation
// clock: deterministic for a given seed, no wall-clock dependence.
func RunMultiEdge(ctx context.Context, p MultiEdgeParams) (*MultiEdgeResult, error) {
	clk := clock.NewSimAtZero()
	d := db.Open(db.Config{DepBound: 5})
	defer d.Close()

	edges := make([]*multiEdge, p.Edges)
	for e := range edges {
		cache, err := core.New(core.Config{Backend: d, Clock: clk, Strategy: p.Strategy})
		if err != nil {
			return nil, fmt.Errorf("experiment: edge %d cache: %w", e, err)
		}
		defer cache.Close()
		me := &multiEdge{
			cache: cache,
			mon:   monitor.New(),
			rng:   rand.New(rand.NewSource(p.Seed + 1000*int64(e) + 17)),
			gen:   &workload.PerfectClusters{Objects: p.Objects, ClusterSize: p.ClusterSize, TxnSize: p.TxnSize},
		}
		edges[e] = me
		// Each edge gets its own independently lossy invalidation link.
		inj := chaos.New[db.Invalidation](clk, chaos.Config{
			DropRate:  p.DropRate,
			BaseDelay: p.InvalDelay,
			Jitter:    p.InvalJitter,
			Seed:      p.Seed + 104729*int64(e+1),
		})
		if _, err := d.Subscribe(fmt.Sprintf("edge-%d", e), inj.Wrap(func(inv db.Invalidation) {
			me.cache.Invalidate(inv.Key, inv.Version)
		})); err != nil {
			return nil, fmt.Errorf("experiment: edge %d subscribe: %w", e, err)
		}
		me.cache.OnComplete(func(comp core.Completion) {
			reads := make([]monitor.Read, 0, len(comp.Reads)+1)
			for _, r := range comp.Reads {
				reads = append(reads, monitor.Read{Key: r.Key, Version: r.Version})
			}
			if comp.Attempted != nil {
				reads = append(reads, monitor.Read{Key: comp.Attempted.Key, Version: comp.Attempted.Version})
			}
			me.mon.RecordReadOnly(reads, comp.Committed)
		})
	}
	// Every edge's monitor sees the shared write stream.
	d.OnCommit(func(rec db.CommitRecord) {
		reads := make([]monitor.Read, len(rec.Reads))
		for i, r := range rec.Reads {
			reads[i] = monitor.Read{Key: r.Key, Version: r.Version}
		}
		for _, me := range edges {
			me.mon.RecordUpdate(rec.Version, rec.Writes, reads)
		}
	})

	keys := workload.AllObjectKeys(p.Objects)
	v1 := kv.Version{Counter: 1}
	for _, k := range keys {
		d.Seed(k, kv.Value("seed:"+k), v1)
		for _, me := range edges {
			me.mon.Seed(k, v1)
		}
	}
	for _, me := range edges {
		for _, k := range keys {
			if _, err := me.cache.Get(ctx, k); err != nil {
				return nil, fmt.Errorf("experiment: warm: %w", err)
			}
		}
	}

	updGen := &workload.PerfectClusters{Objects: p.Objects, ClusterSize: p.ClusterSize, TxnSize: p.TxnSize}
	updRNG := rand.New(rand.NewSource(p.Seed))
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	runUpdate := func() {
		ks := dedup(updGen.Pick(updRNG))
		txn := d.Begin()
		for _, k := range ks {
			if _, _, err := txn.Read(k); err != nil {
				keep(err)
				return
			}
		}
		for _, k := range ks {
			if err := txn.Write(k, kv.Value(fmt.Sprintf("v%d", updRNG.Int63()))); err != nil {
				keep(err)
				return
			}
		}
		if _, err := txn.Commit(); err != nil {
			keep(err)
		}
	}
	runRead := func(me *multiEdge) {
		ks := me.gen.Pick(me.rng)
		me.next++
		for i, k := range ks {
			_, err := me.cache.Read(ctx, me.next, k, i == len(ks)-1)
			if err != nil {
				if !isAbort(err) {
					keep(err)
				}
				return
			}
		}
	}

	drive := func(until time.Time) {
		updInterval := time.Duration(float64(time.Second) / p.UpdateRate)
		readInterval := time.Duration(float64(time.Second) / p.ReadRate)
		var updTick func()
		updTick = func() {
			runUpdate()
			if next := clk.Now().Add(updInterval); next.Before(until) {
				clk.At(next, updTick)
			}
		}
		clk.AfterFunc(updInterval, updTick)
		for _, me := range edges {
			me := me
			var readTick func()
			readTick = func() {
				runRead(me)
				if next := clk.Now().Add(readInterval); next.Before(until) {
					clk.At(next, readTick)
				}
			}
			clk.AfterFunc(readInterval, readTick)
		}
		clk.Run(until)
		clk.RunFor(time.Second) // drain in-flight invalidations
	}

	drive(clk.Now().Add(p.Warmup))
	mon0 := make([]monitor.Stats, p.Edges)
	cache0 := make([]core.MetricsSnapshot, p.Edges)
	for e, me := range edges {
		mon0[e] = me.mon.Stats()
		cache0[e] = me.cache.Metrics()
	}
	drive(clk.Now().Add(p.MeasureFor))
	if firstErr != nil {
		return nil, firstErr
	}

	res := &MultiEdgeResult{Params: p, Edges: make([]EdgeMeasurement, p.Edges)}
	for e, me := range edges {
		res.Edges[e] = EdgeMeasurement{
			Edge:  e,
			Mon:   telemetry.Sub(me.mon.Stats(), mon0[e]),
			Cache: telemetry.Sub(me.cache.Metrics(), cache0[e]),
		}
	}
	return res, nil
}

// Table renders the per-edge breakdown, paper-style: each edge's
// committed/aborted split, its inconsistency ratio, and its hit ratio
// under the shared write stream.
func (r *MultiEdgeResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multi-edge — %d edges × shared %.0f upd/s, %.0f rd/s per edge, drop %.0f%%, %v\n",
		r.Params.Edges, r.Params.UpdateRate, r.Params.ReadRate,
		100*r.Params.DropRate, r.Params.Strategy)
	fmt.Fprintf(&b, "%5s %9s %9s %8s %8s %9s %7s\n",
		"edge", "readtxns", "committed", "abort%", "incons%", "detected", "hit%")
	var agg monitor.Stats
	var aggDetected, aggReads, aggHits uint64
	for _, e := range r.Edges {
		fmt.Fprintf(&b, "%5d %9d %9d %8.2f %8.3f %9d %7.2f\n",
			e.Edge, e.Mon.ReadOnly(), e.Mon.Committed(),
			e.AbortPct(), e.InconsistencyPct(),
			e.Cache.Detected, 100*e.Cache.HitRatio())
		agg.CommittedConsistent += e.Mon.CommittedConsistent
		agg.CommittedInconsistent += e.Mon.CommittedInconsistent
		agg.AbortedConsistent += e.Mon.AbortedConsistent
		agg.AbortedInconsistent += e.Mon.AbortedInconsistent
		aggDetected += e.Cache.Detected
		aggReads += e.Cache.Hits + e.Cache.Misses
		aggHits += e.Cache.Hits
	}
	hitPct := 0.0
	if aggReads > 0 {
		hitPct = 100 * float64(aggHits) / float64(aggReads)
	}
	fmt.Fprintf(&b, "%5s %9d %9d %8.2f %8.3f %9d %7.2f\n",
		"all", agg.ReadOnly(), agg.Committed(),
		pct(agg.AbortedConsistent+agg.AbortedInconsistent, agg.ReadOnly()),
		agg.InconsistencyRatio(), aggDetected, hitPct)
	return b.String()
}
