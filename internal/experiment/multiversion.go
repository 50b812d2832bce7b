package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"tcache/internal/core"
)

// MultiversionParams parameterizes the §VI extension experiment: T-Cache
// combined with TxCache-style version retention, on the realistic
// topologies with the ABORT strategy (so the effect shows up as aborts
// avoided rather than read-throughs).
type MultiversionParams struct {
	Topology   TopologyParams
	DepBound   int
	Versions   []int // 1 = plain T-Cache
	WalkSteps  int
	Warmup     time.Duration
	MeasureFor time.Duration
	Drive      Drive
	Seed       int64
}

// DefaultMultiversionParams compares plain T-Cache against 2- and
// 4-version caches at k=3.
func DefaultMultiversionParams() MultiversionParams {
	return MultiversionParams{
		Topology:   DefaultTopologyParams(),
		DepBound:   3,
		Versions:   []int{1, 2, 4},
		WalkSteps:  4,
		Warmup:     20 * time.Second,
		MeasureFor: 90 * time.Second,
		Drive:      Drive{UpdateRate: 100, ReadRate: 500},
		Seed:       1,
	}
}

// QuickMultiversionParams is a scaled-down variant for tests.
func QuickMultiversionParams() MultiversionParams {
	p := DefaultMultiversionParams()
	p.Topology = QuickTopologyParams()
	p.Versions = []int{1, 4}
	p.Warmup = 5 * time.Second
	p.MeasureFor = 25 * time.Second
	return p
}

// MultiversionRow is one configuration's outcome: M's ConsistentPct,
// InconsistentPct and AbortedPct (shares of all read-only transactions)
// and HitRatio.
type MultiversionRow struct {
	Kind     TopologyKind
	Versions int
	M        Measurement
}

// ServedOldRate is multiversion hits — reads served a retained older
// version — per 100 read-only transactions.
func (r MultiversionRow) ServedOldRate() float64 {
	return pct(r.M.Cache.MVServedOld, r.M.Mon.ReadOnly())
}

// MultiversionResult is the §VI extension comparison.
type MultiversionResult struct {
	Rows []MultiversionRow
}

// RunMultiversion compares version-retention depths on both topologies.
func RunMultiversion(ctx context.Context, p MultiversionParams) (*MultiversionResult, error) {
	res := &MultiversionResult{}
	for _, kind := range topologies {
		t, err := graphTrial(kind, p.Topology, p.WalkSteps)
		if err != nil {
			return nil, err
		}
		t.drive, t.warmup, t.window = p.Drive, p.Warmup, p.MeasureFor
		for _, versions := range p.Versions {
			t.cfg = ColumnConfig{DepBound: p.DepBound, Strategy: core.StrategyAbort, Multiversion: versions, Seed: p.Seed}
			m, _, err := t.run(ctx)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, MultiversionRow{Kind: kind, Versions: versions, M: m})
		}
	}
	return res, nil
}

// Table renders the comparison.
func (r *MultiversionResult) Table() string {
	var b strings.Builder
	b.WriteString("§VI ext. — multiversion T-Cache (ABORT, k=3): versions retained per entry\n")
	fmt.Fprintf(&b, "%8s %4s %14s %14s %12s %14s %10s\n",
		"workload", "V", "consistent[%]", "inconsist[%]", "aborted[%]", "servedOld[%]", "hit-ratio")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8s %4d %14.1f %14.1f %12.1f %14.1f %10.3f\n",
			row.Kind, row.Versions, row.M.ConsistentPct(), row.M.InconsistentPct(),
			row.M.AbortedPct(), row.ServedOldRate(), row.M.HitRatio())
	}
	return b.String()
}

// Row returns the row for (kind, versions).
func (r *MultiversionResult) Row(kind TopologyKind, versions int) (MultiversionRow, bool) {
	for _, row := range r.Rows {
		if row.Kind == kind && row.Versions == versions {
			return row, true
		}
	}
	return MultiversionRow{}, false
}
