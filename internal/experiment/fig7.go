package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"tcache/internal/core"
	"tcache/internal/graph"
	"tcache/internal/workload"
)

// TopologyKind names one of the two realistic workload topologies.
type TopologyKind string

const (
	// TopologyAmazon is the product-affinity topology (Fig. 7a stand-in
	// for the Amazon co-purchasing snapshot).
	TopologyAmazon TopologyKind = "amazon"
	// TopologyOrkut is the social-network topology (Fig. 7b stand-in for
	// the Orkut friendship snapshot).
	TopologyOrkut TopologyKind = "orkut"
)

// topologies is the fixed order in which the realistic-workload figures
// run and print the two topologies.
var topologies = []TopologyKind{TopologyAmazon, TopologyOrkut}

// TopologyParams parameterizes topology construction (§V-B1): generate a
// large graph and down-sample it to SampleTo nodes by random walks with
// 15% restart probability.
type TopologyParams struct {
	FullNodes int
	SampleTo  int
	Restart   float64
	Seed      int64
}

// DefaultTopologyParams mirrors the paper's down-sampling to 1000 nodes.
func DefaultTopologyParams() TopologyParams {
	return TopologyParams{FullNodes: 6000, SampleTo: 1000, Restart: 0.15, Seed: 1}
}

// QuickTopologyParams is a scaled-down variant for tests.
func QuickTopologyParams() TopologyParams {
	return TopologyParams{FullNodes: 1200, SampleTo: 300, Restart: 0.15, Seed: 1}
}

// BuildTopology generates the full graph for kind and down-samples it.
func BuildTopology(kind TopologyKind, p TopologyParams) (*graph.Graph, error) {
	var full *graph.Graph
	switch kind {
	case TopologyAmazon:
		cfg := graph.DefaultAffinityConfig(p.FullNodes)
		cfg.Seed = p.Seed
		full = graph.GenerateAffinity(cfg)
	case TopologyOrkut:
		cfg := graph.DefaultSocialConfig(p.FullNodes)
		cfg.Seed = p.Seed
		full = graph.GenerateSocial(cfg)
	default:
		return nil, fmt.Errorf("experiment: unknown topology %q", kind)
	}
	return graph.RandomWalkSample(full, p.SampleTo, p.Restart, p.Seed+13), nil
}

// graphTrial is the §V-B1 workload as a trial: update and read-only
// transactions alike are random walks of walkSteps steps over the
// sampled kind topology. The caller fills in the column config and the
// phases.
func graphTrial(kind TopologyKind, p TopologyParams, walkSteps int) (trial, error) {
	g, err := BuildTopology(kind, p)
	if err != nil {
		return trial{}, err
	}
	gen := &workload.GraphWalk{Graph: g, Steps: walkSteps, Prefix: string(kind) + "-"}
	return trial{upd: gen, read: gen, keys: gen.Keys()}, nil
}

// TopologyStats summarizes a sampled topology (the quantitative stand-in
// for the Fig. 7a/7b drawings).
type TopologyStats struct {
	Kind       TopologyKind
	Nodes      int
	Edges      int
	AvgDegree  float64
	Clustering float64
	LargestCC  int
}

// DescribeTopologies regenerates Fig. 7(a,b) as summary statistics for
// both sampled topologies.
func DescribeTopologies(p TopologyParams) ([]TopologyStats, error) {
	out := make([]TopologyStats, 0, 2)
	for _, kind := range topologies {
		g, err := BuildTopology(kind, p)
		if err != nil {
			return nil, err
		}
		out = append(out, TopologyStats{
			Kind:       kind,
			Nodes:      g.NumNodes(),
			Edges:      g.NumEdges(),
			AvgDegree:  g.AverageDegree(),
			Clustering: g.AverageClustering(),
			LargestCC:  g.LargestComponent(),
		})
	}
	return out, nil
}

// TopologyTable renders Fig. 7(a,b) statistics.
func TopologyTable(ts []TopologyStats) string {
	var b strings.Builder
	b.WriteString("Fig. 7(a,b) — sampled topology statistics\n")
	fmt.Fprintf(&b, "%8s %7s %7s %8s %11s %10s\n",
		"kind", "nodes", "edges", "avgdeg", "clustering", "largestCC")
	for _, t := range ts {
		fmt.Fprintf(&b, "%8s %7d %7d %8.2f %11.3f %10d\n",
			t.Kind, t.Nodes, t.Edges, t.AvgDegree, t.Clustering, t.LargestCC)
	}
	return b.String()
}

// DepSweepParams parameterizes Fig. 7(c): T-Cache efficacy and overhead
// as a function of the dependency-list bound on the realistic workloads.
type DepSweepParams struct {
	Topology  TopologyParams
	Bounds    []int
	WalkSteps int
	// Strategy is the inconsistency reaction; the paper's Fig. 7c runs
	// with read-through repair ("detects and fixes ... at the cache"),
	// whose abort rate is negligible as §V-B2 reports.
	Strategy   core.Strategy
	Warmup     time.Duration
	MeasureFor time.Duration
	Drive      Drive
	Seed       int64
}

// DefaultDepSweepParams returns the paper's sweep: k = 0..5, 5-object
// random-walk transactions, 100 update/s + 500 read/s.
func DefaultDepSweepParams() DepSweepParams {
	return DepSweepParams{
		Topology:   DefaultTopologyParams(),
		Bounds:     []int{0, 1, 2, 3, 4, 5},
		WalkSteps:  4, // 5 objects: start node + 4 steps
		Strategy:   core.StrategyRetry,
		Warmup:     20 * time.Second,
		MeasureFor: 120 * time.Second,
		Drive:      Drive{UpdateRate: 100, ReadRate: 500},
		Seed:       1,
	}
}

// QuickDepSweepParams is a scaled-down variant for tests.
func QuickDepSweepParams() DepSweepParams {
	p := DefaultDepSweepParams()
	p.Topology = QuickTopologyParams()
	p.Bounds = []int{0, 3}
	p.Warmup = 5 * time.Second
	p.MeasureFor = 20 * time.Second
	return p
}

// DepSweepPoint is one x position of Fig. 7(c) for one workload: M's
// InconsistencyRatio (% of committed transactions) and HitRatio.
type DepSweepPoint struct {
	Bound int
	// DBAccessNormed is the DB access rate as a percentage of the rate at
	// the sweep's first bound (k=0, the consistency-unaware cache),
	// matching the paper's "normed" bottom panel.
	DBAccessNormed float64
	M              Measurement
}

// DepSweepSeries is Fig. 7(c) for one topology.
type DepSweepSeries struct {
	Kind   TopologyKind
	Points []DepSweepPoint
}

// RunDepListSweep regenerates Fig. 7(c) for both topologies.
func RunDepListSweep(ctx context.Context, p DepSweepParams) ([]DepSweepSeries, error) {
	var out []DepSweepSeries
	for _, kind := range topologies {
		t, err := graphTrial(kind, p.Topology, p.WalkSteps)
		if err != nil {
			return nil, err
		}
		t.drive, t.warmup, t.window = p.Drive, p.Warmup, p.MeasureFor
		series := DepSweepSeries{Kind: kind}
		baseRate := 0.0
		for _, k := range p.Bounds {
			t.cfg = ColumnConfig{DepBound: k, Strategy: p.Strategy, Seed: p.Seed}
			m, _, err := t.run(ctx)
			if err != nil {
				return nil, err
			}
			if baseRate == 0 {
				baseRate = m.DBAccessRate()
			}
			series.Points = append(series.Points, DepSweepPoint{Bound: k, DBAccessNormed: normed(m, baseRate), M: m})
		}
		out = append(out, series)
	}
	return out, nil
}

// normed is m's DB access rate as a percentage of baseRate (100 when
// there is no baseline to compare with).
func normed(m Measurement, baseRate float64) float64 {
	if baseRate <= 0 {
		return 100
	}
	return 100 * m.DBAccessRate() / baseRate
}

// DepSweepTable renders Fig. 7(c).
func DepSweepTable(series []DepSweepSeries) string {
	var b strings.Builder
	b.WriteString("Fig. 7(c) — T-Cache vs dependency-list size\n")
	fmt.Fprintf(&b, "%8s %6s %18s %10s %17s\n",
		"workload", "k", "inconsistency[%]", "hit-ratio", "db-access[%norm]")
	for _, s := range series {
		for _, pt := range s.Points {
			fmt.Fprintf(&b, "%8s %6d %18.1f %10.3f %17.1f\n",
				s.Kind, pt.Bound, pt.M.InconsistencyRatio(), pt.M.HitRatio(), pt.DBAccessNormed)
		}
	}
	return b.String()
}

// TTLSweepParams parameterizes Fig. 7(d): the TTL-based baseline, with
// dependency tracking disabled (k=0).
type TTLSweepParams struct {
	Topology   TopologyParams
	TTLs       []time.Duration
	WalkSteps  int
	Warmup     time.Duration
	MeasureFor time.Duration
	Drive      Drive
	Seed       int64
}

// DefaultTTLSweepParams sweeps TTLs on a log scale, largest first
// (matching the paper's reversed log axis). The measurement window is
// sized so even the largest TTL has effect; the paper's absolute TTL
// range (30..6400s) is scaled down proportionally to our shorter runs.
func DefaultTTLSweepParams() TTLSweepParams {
	return TTLSweepParams{
		Topology:  DefaultTopologyParams(),
		WalkSteps: 4,
		TTLs: []time.Duration{
			1600 * time.Second, 800 * time.Second, 400 * time.Second,
			200 * time.Second, 100 * time.Second, 50 * time.Second,
			25 * time.Second, 12 * time.Second, 6 * time.Second,
			3 * time.Second, 1500 * time.Millisecond,
		},
		Warmup:     30 * time.Second,
		MeasureFor: 300 * time.Second,
		Drive:      Drive{UpdateRate: 100, ReadRate: 500},
		Seed:       1,
	}
}

// QuickTTLSweepParams is a scaled-down variant for tests.
func QuickTTLSweepParams() TTLSweepParams {
	p := DefaultTTLSweepParams()
	p.Topology = QuickTopologyParams()
	p.TTLs = []time.Duration{60 * time.Second, 5 * time.Second}
	p.Warmup = 5 * time.Second
	p.MeasureFor = 30 * time.Second
	return p
}

// TTLSweepPoint is one x position of Fig. 7(d) for one workload: M's
// InconsistencyRatio and HitRatio.
type TTLSweepPoint struct {
	TTL            time.Duration
	DBAccessNormed float64 // % of the no-TTL plain-cache rate
	M              Measurement
}

// TTLSweepSeries is Fig. 7(d) for one topology.
type TTLSweepSeries struct {
	Kind   TopologyKind
	Points []TTLSweepPoint
}

// RunTTLSweep regenerates Fig. 7(d): a consistency-unaware cache (k=0)
// with entry TTLs, normalized against the no-TTL baseline.
func RunTTLSweep(ctx context.Context, p TTLSweepParams) ([]TTLSweepSeries, error) {
	var out []TTLSweepSeries
	for _, kind := range topologies {
		t, err := graphTrial(kind, p.Topology, p.WalkSteps)
		if err != nil {
			return nil, err
		}
		t.drive, t.warmup, t.window = p.Drive, p.Warmup, p.MeasureFor
		// Baseline: no TTL, plain cache.
		t.cfg = ColumnConfig{DepBound: 0, Strategy: core.StrategyAbort, Seed: p.Seed}
		base, _, err := t.run(ctx)
		if err != nil {
			return nil, err
		}
		series := TTLSweepSeries{Kind: kind}
		for _, ttl := range p.TTLs {
			t.cfg.TTL = ttl
			m, _, err := t.run(ctx)
			if err != nil {
				return nil, err
			}
			series.Points = append(series.Points, TTLSweepPoint{TTL: ttl, DBAccessNormed: normed(m, base.DBAccessRate()), M: m})
		}
		out = append(out, series)
	}
	return out, nil
}

// TTLSweepTable renders Fig. 7(d).
func TTLSweepTable(series []TTLSweepSeries) string {
	var b strings.Builder
	b.WriteString("Fig. 7(d) — TTL-limited cache baseline (k=0)\n")
	fmt.Fprintf(&b, "%8s %9s %18s %10s %17s\n",
		"workload", "ttl[s]", "inconsistency[%]", "hit-ratio", "db-access[%norm]")
	for _, s := range series {
		for _, pt := range s.Points {
			fmt.Fprintf(&b, "%8s %9.0f %18.1f %10.3f %17.1f\n",
				s.Kind, pt.TTL.Seconds(), pt.M.InconsistencyRatio(), pt.M.HitRatio(), pt.DBAccessNormed)
		}
	}
	return b.String()
}
