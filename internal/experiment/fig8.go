package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// RealisticStrategyParams parameterizes Fig. 8 — the ABORT/EVICT/RETRY
// comparison on the realistic topologies with dependency lists of 3 —
// and the headline summary, which is read off the same runs.
type RealisticStrategyParams struct {
	Topology   TopologyParams
	DepBound   int
	WalkSteps  int
	Warmup     time.Duration
	MeasureFor time.Duration
	Drive      Drive
	Seed       int64
}

// DefaultRealisticStrategyParams returns the paper's Fig. 8 setup
// (dependency lists of length 3).
func DefaultRealisticStrategyParams() RealisticStrategyParams {
	return RealisticStrategyParams{
		Topology:   DefaultTopologyParams(),
		DepBound:   3,
		WalkSteps:  4,
		Warmup:     20 * time.Second,
		MeasureFor: 120 * time.Second,
		Drive:      Drive{UpdateRate: 100, ReadRate: 500},
		Seed:       1,
	}
}

// QuickRealisticStrategyParams is a scaled-down variant for tests.
func QuickRealisticStrategyParams() RealisticStrategyParams {
	p := DefaultRealisticStrategyParams()
	p.Topology = QuickTopologyParams()
	p.Warmup = 5 * time.Second
	p.MeasureFor = 25 * time.Second
	return p
}

// RealisticStrategyResult is the regenerated Fig. 8: one StrategyResult
// per topology.
type RealisticStrategyResult struct {
	PerTopology map[TopologyKind]*StrategyResult
}

// RunStrategyComparisonRealistic regenerates Fig. 8.
func RunStrategyComparisonRealistic(ctx context.Context, p RealisticStrategyParams) (*RealisticStrategyResult, error) {
	out := &RealisticStrategyResult{PerTopology: make(map[TopologyKind]*StrategyResult, 2)}
	for _, kind := range topologies {
		t, err := graphTrial(kind, p.Topology, p.WalkSteps)
		if err != nil {
			return nil, err
		}
		t.cfg = ColumnConfig{DepBound: p.DepBound, Seed: p.Seed}
		t.drive, t.warmup, t.window = p.Drive, p.Warmup, p.MeasureFor
		res, err := compareStrategies(ctx, fmt.Sprintf("Fig. 8 — strategy efficacy (%s, k=%d)", kind, p.DepBound), t)
		if err != nil {
			return nil, err
		}
		out.PerTopology[kind] = res
	}
	return out, nil
}

// Table renders both topologies' breakdowns.
func (r *RealisticStrategyResult) Table() string {
	var b strings.Builder
	for _, kind := range topologies {
		if res, ok := r.PerTopology[kind]; ok {
			b.WriteString(res.Table())
		}
	}
	return b.String()
}
