package experiment

import (
	"context"
	"fmt"
	"strings"

	"tcache/internal/core"
)

// HeadlineRow is one topology's summary. The paper's two headline claims
// come from different strategies: "detects 43–70% of the inconsistencies"
// is the ABORT detection ratio (Fig. 8), while "increases the rate of
// consistent transactions by 33–58%" is what read-through repair (RETRY)
// achieves over the consistency-unaware baseline.
type HeadlineRow struct {
	Kind TopologyKind
	// Detection is the share of actually-inconsistent transactions that
	// T-Cache (ABORT, k=DepBound) aborted.
	Detection float64
	// BaselineInconsistency and TCacheInconsistency are the committed
	// inconsistency ratios without (k=0) and with T-Cache (RETRY).
	BaselineInconsistency float64
	TCacheInconsistency   float64
	// ConsistentRateIncrease is the relative increase of the
	// consistent-committed transaction rate of T-Cache (RETRY) over the
	// k=0 baseline, in %.
	ConsistentRateIncrease float64
	// HitRatioDelta is the absolute hit-ratio change vs the baseline
	// ("nominal overhead" means ≈0).
	HitRatioDelta float64
}

// HeadlineResult is the paper's §I/§VIII summary regenerated.
type HeadlineResult struct {
	Rows []HeadlineRow
}

// RunHeadline computes the paper's summary numbers (§I, §VIII: with
// dependency lists of size 3, T-Cache detects 43–70% of the
// inconsistencies and increases the consistent-transaction rate by
// 33–58%, with nominal overhead) on Fig. 8's setup, from three runs per
// topology: the k=0 baseline, T-Cache with ABORT (detection ratio), and
// T-Cache with RETRY (consistent-rate increase and overhead).
func RunHeadline(ctx context.Context, p RealisticStrategyParams) (*HeadlineResult, error) {
	res := &HeadlineResult{}
	for _, kind := range topologies {
		t, err := graphTrial(kind, p.Topology, p.WalkSteps)
		if err != nil {
			return nil, err
		}
		t.drive, t.warmup, t.window = p.Drive, p.Warmup, p.MeasureFor
		run := func(bound int, strategy core.Strategy) (Measurement, error) {
			t.cfg = ColumnConfig{DepBound: bound, Strategy: strategy, Seed: p.Seed}
			m, _, err := t.run(ctx)
			return m, err
		}
		base, err := run(0, core.StrategyAbort)
		if err != nil {
			return nil, err
		}
		abort, err := run(p.DepBound, core.StrategyAbort)
		if err != nil {
			return nil, err
		}
		retry, err := run(p.DepBound, core.StrategyRetry)
		if err != nil {
			return nil, err
		}

		baseConsistentRate := float64(base.Mon.CommittedConsistent) / base.Duration.Seconds()
		retryConsistentRate := float64(retry.Mon.CommittedConsistent) / retry.Duration.Seconds()
		increase := 0.0
		if baseConsistentRate > 0 {
			increase = 100 * (retryConsistentRate - baseConsistentRate) / baseConsistentRate
		}
		res.Rows = append(res.Rows, HeadlineRow{
			Kind:                   kind,
			Detection:              abort.DetectionRatio(),
			BaselineInconsistency:  base.InconsistencyRatio(),
			TCacheInconsistency:    retry.InconsistencyRatio(),
			ConsistentRateIncrease: increase,
			HitRatioDelta:          retry.HitRatio() - base.HitRatio(),
		})
	}
	return res, nil
}

// Table renders the headline summary.
func (r *HeadlineResult) Table() string {
	var b strings.Builder
	b.WriteString("Headline (§I/§VIII) — T-Cache (k=3) vs consistency-unaware cache\n")
	b.WriteString("(detection from ABORT runs; inconsistency/rate/overhead from RETRY runs)\n")
	fmt.Fprintf(&b, "%8s %13s %17s %17s %17s %12s\n",
		"workload", "detection[%]", "inconsist-k0[%]", "inconsist-tc[%]", "consist-rate+[%]", "hit-delta")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8s %13.1f %17.1f %17.1f %17.1f %12.4f\n",
			row.Kind, row.Detection, row.BaselineInconsistency, row.TCacheInconsistency,
			row.ConsistentRateIncrease, row.HitRatioDelta)
	}
	return b.String()
}
