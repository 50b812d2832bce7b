package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"tcache/internal/clock"
	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/workload"
)

// DriftParams parameterizes the Fig. 5 experiment: perfectly clustered
// accesses whose cluster boundaries shift by one object at a fixed
// interval (§V-A3, "Drifting clusters").
type DriftParams struct {
	Objects     int
	ClusterSize int
	TxnSize     int
	DepBound    int
	// ShiftEvery is the drift period (3 minutes in the paper).
	ShiftEvery time.Duration
	Duration   time.Duration
	Bucket     time.Duration
	Drive      Drive
	Seed       int64
}

// DefaultDriftParams returns the paper's setup: clusters shift by 1
// every 3 minutes, 800s total, 2000 objects (0..1999 per §V-A1).
func DefaultDriftParams() DriftParams {
	return DriftParams{
		Objects:     2000,
		ClusterSize: 5,
		TxnSize:     5,
		DepBound:    5,
		ShiftEvery:  3 * time.Minute,
		Duration:    800 * time.Second,
		Bucket:      10 * time.Second,
		Drive:       Drive{UpdateRate: 100, ReadRate: 500},
		Seed:        1,
	}
}

// QuickDriftParams is a scaled-down variant for tests.
func QuickDriftParams() DriftParams {
	p := DefaultDriftParams()
	p.Objects = 500
	p.ShiftEvery = 20 * time.Second
	p.Duration = 70 * time.Second
	p.Bucket = 5 * time.Second
	return p
}

// DriftResult is the regenerated Fig. 5: the committed-inconsistency
// ratio over time with the shift instants marked.
type DriftResult struct {
	Params DriftParams
	// Series holds one Measurement per Params.Bucket of the run.
	Series []Measurement
	// Shifts are the bucket indices at which the clusters shifted.
	Shifts []int
}

// RunDrift regenerates Fig. 5.
func RunDrift(ctx context.Context, p DriftParams) (*DriftResult, error) {
	res := &DriftResult{Params: p}
	t := driftTrial(p, db.MergeRecency, &res.Shifts)
	t.bucket = p.Bucket
	var err error
	if _, res.Series, err = t.run(ctx); err != nil {
		return nil, err
	}
	// Trim shift marks that fall beyond the run.
	for len(res.Shifts) > 0 && res.Shifts[len(res.Shifts)-1] >= len(res.Series) {
		res.Shifts = res.Shifts[:len(res.Shifts)-1]
	}
	return res, nil
}

// driftTrial is the Fig. 5 run under the given dependency-list pruning
// policy: perfectly clustered accesses whose clusters advance by one
// object every p.ShiftEvery. As the trial runs, shifts collects the
// bucket index of each advance.
func driftTrial(p DriftParams, policy db.MergePolicy, shifts *[]int) trial {
	gen := &workload.PerfectClusters{Objects: p.Objects, ClusterSize: p.ClusterSize, TxnSize: p.TxnSize}
	return trial{
		cfg: ColumnConfig{DepBound: p.DepBound, Strategy: core.StrategyAbort, Seed: p.Seed, DepMerge: policy},
		upd: gen, read: gen, keys: workload.AllObjectKeys(p.Objects),
		drive: p.Drive, window: p.Duration,
		schedule: func(clk *clock.Sim) {
			start := clk.Now()
			var shift func()
			shift = func() {
				gen.Advance()
				*shifts = append(*shifts, int(clk.Since(start)/p.Bucket))
				clk.AfterFunc(p.ShiftEvery, shift)
			}
			clk.AfterFunc(p.ShiftEvery, shift)
		},
	}
}

// Table renders the inconsistency-ratio series with shift marks.
func (r *DriftResult) Table() string {
	shiftSet := make(map[int]bool, len(r.Shifts))
	for _, s := range r.Shifts {
		shiftSet[s] = true
	}
	var b strings.Builder
	b.WriteString("Fig. 5 — Drifting clusters: inconsistency ratio over time")
	fmt.Fprintf(&b, " (clusters shift every %.0fs, marked *)\n", r.Params.ShiftEvery.Seconds())
	fmt.Fprintf(&b, "%8s %20s %14s\n", "t[s]", "inconsistency[%]", "aborted[%]")
	for i, m := range r.Series {
		mark := " "
		if shiftSet[i] {
			mark = "*"
		}
		fmt.Fprintf(&b, "%7.0f%s %20.2f %14.1f\n",
			(time.Duration(i) * r.Params.Bucket).Seconds(), mark,
			m.InconsistencyRatio(), m.AbortedPct())
	}
	return b.String()
}
