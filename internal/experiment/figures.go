package experiment

import "context"

// Figure is one printable table of the evaluation: Run builds it at
// paper scale or, with quick, scaled down, from the given simulation
// seed, and returns the rendered table.
type Figure struct {
	ID  string
	Run func(ctx context.Context, quick bool, seed int64) (string, error)
}

// adapt fits one experiment to the list: its default or quick
// parameters, seeded through setSeed, run, and rendered.
func adapt[P, R any](def, quick func() P, setSeed func(*P, int64),
	run func(context.Context, P) (R, error), table func(R) string) func(context.Context, bool, int64) (string, error) {
	return func(ctx context.Context, q bool, seed int64) (string, error) {
		p := def()
		if q {
			p = quick()
		}
		setSeed(&p, seed)
		res, err := run(ctx, p)
		if err != nil {
			return "", err
		}
		return table(res), nil
	}
}

// Figures lists every figure — the paper's §V and this repo's
// extensions of it — in the order tcache-figs prints them. It is the
// one enumeration: the printer and the golden-table test both range
// over it.
var Figures = []Figure{
	{"3", adapt(DefaultAlphaParams, QuickAlphaParams,
		func(p *AlphaParams, s int64) { p.Seed = s },
		RunAlphaSweep, (*AlphaResult).Table)},
	{"4", adapt(DefaultConvergenceParams, QuickConvergenceParams,
		func(p *ConvergenceParams, s int64) { p.Seed = s },
		RunConvergence, (*ConvergenceResult).Table)},
	{"5", adapt(DefaultDriftParams, QuickDriftParams,
		func(p *DriftParams, s int64) { p.Seed = s },
		RunDrift, (*DriftResult).Table)},
	{"6", adapt(DefaultStrategyParams, QuickStrategyParams,
		func(p *StrategyParams, s int64) { p.Seed = s },
		RunStrategyComparison, (*StrategyResult).Table)},
	{"7ab", adapt(DefaultTopologyParams, QuickTopologyParams,
		func(p *TopologyParams, s int64) { p.Seed = s },
		func(_ context.Context, p TopologyParams) ([]TopologyStats, error) {
			return DescribeTopologies(p)
		}, TopologyTable)},
	{"7c", adapt(DefaultDepSweepParams, QuickDepSweepParams,
		func(p *DepSweepParams, s int64) { p.Seed = s },
		RunDepListSweep, DepSweepTable)},
	{"7d", adapt(DefaultTTLSweepParams, QuickTTLSweepParams,
		func(p *TTLSweepParams, s int64) { p.Seed = s },
		RunTTLSweep, TTLSweepTable)},
	{"8", adapt(DefaultRealisticStrategyParams, QuickRealisticStrategyParams,
		func(p *RealisticStrategyParams, s int64) { p.Seed = s },
		RunStrategyComparisonRealistic, (*RealisticStrategyResult).Table)},
	{"headline", adapt(DefaultRealisticStrategyParams, QuickRealisticStrategyParams,
		func(p *RealisticStrategyParams, s int64) { p.Seed = s },
		RunHeadline, (*HeadlineResult).Table)},
	{"album", adapt(DefaultAlbumParams, QuickAlbumParams,
		func(p *AlbumParams, s int64) { p.Seed = s },
		RunAlbum, (*AlbumResult).Table)},
	{"lru", adapt(DefaultMergeAblationParams, QuickDriftParams,
		func(p *DriftParams, s int64) { p.Seed = s },
		RunMergeAblation, (*MergeAblationResult).Table)},
	{"drop", adapt(DefaultDropSweepParams, QuickDropSweepParams,
		func(p *DropSweepParams, s int64) { p.Seed = s },
		RunDropSweep, (*DropSweepResult).Table)},
	{"multiedge", adapt(DefaultMultiEdgeParams, QuickMultiEdgeParams,
		func(p *MultiEdgeParams, s int64) { p.Seed = s },
		RunMultiEdge, (*MultiEdgeResult).Table)},
}
