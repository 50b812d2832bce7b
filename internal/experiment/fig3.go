package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"tcache/internal/core"
	"tcache/internal/workload"
)

// AlphaParams parameterizes the Fig. 3 experiment: inconsistency
// detection as a function of the Pareto α of the approximate-cluster
// workload (§V-A2).
type AlphaParams struct {
	Objects     int
	ClusterSize int
	TxnSize     int
	DepBound    int
	Alphas      []float64
	Warmup      time.Duration
	MeasureFor  time.Duration
	Drive       Drive
	Seed        int64
}

// DefaultAlphaParams returns the paper's setup: 2000 objects, clusters of
// 5, dependency lists of 5, ABORT strategy, α from 1/32 to 4.
func DefaultAlphaParams() AlphaParams {
	return AlphaParams{
		Objects:     2000,
		ClusterSize: 5,
		TxnSize:     5,
		DepBound:    5,
		Alphas:      []float64{1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1, 2, 4},
		Warmup:      20 * time.Second,
		MeasureFor:  60 * time.Second,
		Drive:       Drive{UpdateRate: 100, ReadRate: 500},
		Seed:        1,
	}
}

// QuickAlphaParams is a scaled-down variant for tests and smoke benches.
func QuickAlphaParams() AlphaParams {
	p := DefaultAlphaParams()
	p.Alphas = []float64{1.0 / 32, 1.0 / 2, 4}
	p.Warmup = 5 * time.Second
	p.MeasureFor = 15 * time.Second
	return p
}

// AlphaPoint is one x/y point of Fig. 3: M.DetectionRatio() — the
// percentage of actually-inconsistent transactions T-Cache aborted — at
// one α.
type AlphaPoint struct {
	Alpha float64
	M     Measurement
}

// AlphaResult is the regenerated Fig. 3.
type AlphaResult struct {
	Params AlphaParams
	Points []AlphaPoint
}

// RunAlphaSweep regenerates Fig. 3: for each α it builds a fresh column
// with the ABORT strategy, warms it up, and measures the detection ratio.
func RunAlphaSweep(ctx context.Context, p AlphaParams) (*AlphaResult, error) {
	res := &AlphaResult{Params: p}
	for i, alpha := range p.Alphas {
		gen := &workload.ParetoClusters{
			Objects:     p.Objects,
			ClusterSize: p.ClusterSize,
			TxnSize:     p.TxnSize,
			Alpha:       alpha,
		}
		m, _, err := trial{
			cfg: ColumnConfig{DepBound: p.DepBound, Strategy: core.StrategyAbort, Seed: p.Seed + int64(i)},
			upd: gen, read: gen, keys: workload.AllObjectKeys(p.Objects),
			drive: p.Drive, warmup: p.Warmup, window: p.MeasureFor,
		}.run(ctx)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, AlphaPoint{Alpha: alpha, M: m})
	}
	return res, nil
}

// Table renders the figure as the paper's series: detection ratio vs α.
func (r *AlphaResult) Table() string {
	var b strings.Builder
	b.WriteString("Fig. 3 — Ratio of detected inconsistencies as a function of Pareto alpha\n")
	fmt.Fprintf(&b, "%10s %22s %24s\n", "alpha", "detected-inconsist[%]", "committed-inconsist[txn]")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%10.4f %22.1f %24d\n", pt.Alpha, pt.M.DetectionRatio(), pt.M.Mon.CommittedInconsistent)
	}
	return b.String()
}
