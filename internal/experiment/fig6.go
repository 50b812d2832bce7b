package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"tcache/internal/core"
	"tcache/internal/workload"
)

// Strategies is the fixed order in which strategy comparisons run.
var Strategies = []core.Strategy{core.StrategyAbort, core.StrategyEvict, core.StrategyRetry}

// StrategyParams parameterizes the Fig. 6 experiment: comparing ABORT,
// EVICT and RETRY on the approximate-cluster synthetic workload
// (§V-A4: 2000 objects, window 5, Pareto α=1, dependency lists of 5).
type StrategyParams struct {
	Objects     int
	ClusterSize int
	TxnSize     int
	DepBound    int
	Alpha       float64
	Warmup      time.Duration
	MeasureFor  time.Duration
	Drive       Drive
	Seed        int64
}

// DefaultStrategyParams returns the paper's Fig. 6 setup.
func DefaultStrategyParams() StrategyParams {
	return StrategyParams{
		Objects:     2000,
		ClusterSize: 5,
		TxnSize:     5,
		DepBound:    5,
		Alpha:       1.0,
		Warmup:      20 * time.Second,
		MeasureFor:  60 * time.Second,
		Drive:       Drive{UpdateRate: 100, ReadRate: 500},
		Seed:        1,
	}
}

// QuickStrategyParams is a scaled-down variant for tests.
func QuickStrategyParams() StrategyParams {
	p := DefaultStrategyParams()
	p.Warmup = 5 * time.Second
	p.MeasureFor = 20 * time.Second
	return p
}

// StrategyRow is one bar of Figs. 6/8: the outcome breakdown under one
// strategy, as M's ConsistentPct, InconsistentPct and AbortedPct (each a
// share of all read-only transactions).
type StrategyRow struct {
	Strategy core.Strategy
	M        Measurement
}

// Uncommittable is the paper's comparison metric for EVICT/RETRY: the
// share of transactions that could not commit consistently (inconsistent
// commits plus aborts).
func (r StrategyRow) Uncommittable() float64 { return r.M.InconsistentPct() + r.M.AbortedPct() }

// StrategyResult is the regenerated Fig. 6 (or Fig. 8 for one topology).
type StrategyResult struct {
	Title string
	Rows  []StrategyRow
}

// RunStrategyComparison regenerates Fig. 6: one run per strategy on
// identical workload seeds.
func RunStrategyComparison(ctx context.Context, p StrategyParams) (*StrategyResult, error) {
	gen := &workload.ParetoClusters{
		Objects:     p.Objects,
		ClusterSize: p.ClusterSize,
		TxnSize:     p.TxnSize,
		Alpha:       p.Alpha,
	}
	return compareStrategies(ctx, "Fig. 6 — strategy efficacy (synthetic, Pareto alpha=1)", trial{
		cfg: ColumnConfig{DepBound: p.DepBound, Seed: p.Seed},
		upd: gen, read: gen, keys: workload.AllObjectKeys(p.Objects),
		drive: p.Drive, warmup: p.Warmup, window: p.MeasureFor,
	})
}

// compareStrategies runs t once per strategy; shared by Figs. 6 and 8.
func compareStrategies(ctx context.Context, title string, t trial) (*StrategyResult, error) {
	res := &StrategyResult{Title: title}
	for _, s := range Strategies {
		t.cfg.Strategy = s
		m, _, err := t.run(ctx)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, StrategyRow{Strategy: s, M: m})
	}
	return res, nil
}

// Table renders the stacked-bar data of Fig. 6 / Fig. 8.
func (r *StrategyResult) Table() string {
	var b strings.Builder
	b.WriteString(r.Title)
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%8s %14s %14s %12s %18s\n",
		"strategy", "consistent[%]", "inconsist[%]", "aborted[%]", "uncommittable[%]")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8s %14.1f %14.1f %12.1f %18.1f\n",
			row.Strategy, row.M.ConsistentPct(), row.M.InconsistentPct(), row.M.AbortedPct(), row.Uncommittable())
	}
	return b.String()
}

// Row returns the row for strategy s, if present.
func (r *StrategyResult) Row(s core.Strategy) (StrategyRow, bool) {
	for _, row := range r.Rows {
		if row.Strategy == s {
			return row, true
		}
	}
	return StrategyRow{}, false
}
