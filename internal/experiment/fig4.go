package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"tcache/internal/clock"
	"tcache/internal/core"
	"tcache/internal/workload"
)

// ConvergenceParams parameterizes the Fig. 4 experiment: T-Cache's
// reaction when a uniformly random workload suddenly becomes perfectly
// clustered (§V-A3, "Cluster formation").
type ConvergenceParams struct {
	Objects     int
	ClusterSize int
	TxnSize     int
	DepBound    int
	// SwitchAt is when accesses become clustered (t=58s in the paper).
	SwitchAt time.Duration
	Duration time.Duration
	Bucket   time.Duration
	Drive    Drive
	Seed     int64
}

// DefaultConvergenceParams returns the paper's setup: 1000 objects,
// ~500 txn/s, switch at t=58s, 160s total.
func DefaultConvergenceParams() ConvergenceParams {
	return ConvergenceParams{
		Objects:     1000,
		ClusterSize: 5,
		TxnSize:     5,
		DepBound:    5,
		SwitchAt:    58 * time.Second,
		Duration:    160 * time.Second,
		Bucket:      4 * time.Second,
		Drive:       Drive{UpdateRate: 100, ReadRate: 500},
		Seed:        1,
	}
}

// QuickConvergenceParams is a scaled-down variant for tests.
func QuickConvergenceParams() ConvergenceParams {
	p := DefaultConvergenceParams()
	p.SwitchAt = 10 * time.Second
	p.Duration = 30 * time.Second
	p.Bucket = 2 * time.Second
	return p
}

// ConvergenceResult is the regenerated Fig. 4: a per-bucket breakdown of
// transaction outcomes over time.
type ConvergenceResult struct {
	Params ConvergenceParams
	// Series holds one Measurement per Params.Bucket of the run.
	Series []Measurement
	// SwitchBucket is the bucket index at which clustering started.
	SwitchBucket int
}

// RunConvergence regenerates Fig. 4.
func RunConvergence(ctx context.Context, p ConvergenceParams) (*ConvergenceResult, error) {
	gen := &workload.Switch{
		Before: &workload.Uniform{Objects: p.Objects, TxnSize: p.TxnSize},
		After: &workload.PerfectClusters{
			Objects:     p.Objects,
			ClusterSize: p.ClusterSize,
			TxnSize:     p.TxnSize,
		},
	}
	_, series, err := trial{
		cfg: ColumnConfig{DepBound: p.DepBound, Strategy: core.StrategyAbort, Seed: p.Seed},
		upd: gen, read: gen, keys: workload.AllObjectKeys(p.Objects),
		drive: p.Drive, window: p.Duration, bucket: p.Bucket,
		schedule: func(clk *clock.Sim) { clk.AfterFunc(p.SwitchAt, gen.Flip) },
	}.run(ctx)
	if err != nil {
		return nil, err
	}
	return &ConvergenceResult{
		Params:       p,
		Series:       series,
		SwitchBucket: int(p.SwitchAt / p.Bucket),
	}, nil
}

// Table renders the per-bucket outcome shares over time, marking the
// switch point.
func (r *ConvergenceResult) Table() string {
	var b strings.Builder
	b.WriteString("Fig. 4 — Convergence after cluster formation")
	fmt.Fprintf(&b, " (accesses clustered from t=%.0fs)\n", r.Params.SwitchAt.Seconds())
	fmt.Fprintf(&b, "%8s %14s %14s %14s %12s\n",
		"t[s]", "consistent[%]", "inconsist[%]", "aborted[%]", "txn/s")
	for i, m := range r.Series {
		mark := " "
		if i == r.SwitchBucket {
			mark = "*"
		}
		fmt.Fprintf(&b, "%7.0f%s %14.1f %14.1f %14.1f %12.1f\n",
			(time.Duration(i) * r.Params.Bucket).Seconds(), mark,
			m.ConsistentPct(), m.InconsistentPct(), m.AbortedPct(),
			float64(m.Mon.ReadOnly())/r.Params.Bucket.Seconds())
	}
	return b.String()
}

// WindowShares is the outcome breakdown over buckets [from, to).
func (r *ConvergenceResult) WindowShares(from, to int) (consistent, inconsistent, aborted float64) {
	var w Measurement
	for i := from; i < to && i < len(r.Series); i++ {
		w.Mon = sum(w.Mon, r.Series[i].Mon)
	}
	return w.ConsistentPct(), w.InconsistentPct(), w.AbortedPct()
}
