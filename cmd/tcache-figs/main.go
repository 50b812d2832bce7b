// Command tcache-figs regenerates every table and figure of the paper's
// evaluation section (§V), and this repo's extensions of it, on the
// deterministic simulation harness.
//
// Usage:
//
//	tcache-figs                 # run everything at paper scale
//	tcache-figs -fig 7c,8       # some figures: 3, 4, 5, 6, 7ab, 7c, 7d, 8,
//	                            # headline, album, lru, drop, mv, multiedge
//	tcache-figs -quick          # scaled-down smoke run
//	tcache-figs -seed 7         # change the simulation seed
//
// It prints the paper's figures and nothing else: what is timed is a
// bench/ row named in BENCHMARK.json, what is counted is a go test
// assertion (README "Where a number lives"). Each experiment's doc
// comment in internal/experiment names the paper figure it reproduces
// and what to look for in its table.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tcache/internal/experiment"
)

// figure is one printable table: run builds it at paper scale or, with
// quick, scaled down, from the given simulation seed.
type figure struct {
	id  string
	run func(ctx context.Context, quick bool, seed int64) (string, error)
}

// adapt fits one experiment to the table: its default or quick
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

// figures lists every figure in the order `-fig all` prints them.
var figures = []figure{
	{"3", adapt(experiment.DefaultAlphaParams, experiment.QuickAlphaParams,
		func(p *experiment.AlphaParams, s int64) { p.Seed = s },
		experiment.RunAlphaSweep, (*experiment.AlphaResult).Table)},
	{"4", adapt(experiment.DefaultConvergenceParams, experiment.QuickConvergenceParams,
		func(p *experiment.ConvergenceParams, s int64) { p.Seed = s },
		experiment.RunConvergence, (*experiment.ConvergenceResult).Table)},
	{"5", adapt(experiment.DefaultDriftParams, experiment.QuickDriftParams,
		func(p *experiment.DriftParams, s int64) { p.Seed = s },
		experiment.RunDrift, (*experiment.DriftResult).Table)},
	{"6", adapt(experiment.DefaultStrategyParams, experiment.QuickStrategyParams,
		func(p *experiment.StrategyParams, s int64) { p.Seed = s },
		experiment.RunStrategyComparison, (*experiment.StrategyResult).Table)},
	{"7ab", adapt(experiment.DefaultTopologyParams, experiment.QuickTopologyParams,
		func(p *experiment.TopologyParams, s int64) { p.Seed = s },
		func(_ context.Context, p experiment.TopologyParams) ([]experiment.TopologyStats, error) {
			return experiment.DescribeTopologies(p)
		}, experiment.TopologyTable)},
	{"7c", adapt(experiment.DefaultDepSweepParams, experiment.QuickDepSweepParams,
		func(p *experiment.DepSweepParams, s int64) { p.Seed = s },
		experiment.RunDepListSweep, experiment.DepSweepTable)},
	{"7d", adapt(experiment.DefaultTTLSweepParams, experiment.QuickTTLSweepParams,
		func(p *experiment.TTLSweepParams, s int64) { p.Seed = s },
		experiment.RunTTLSweep, experiment.TTLSweepTable)},
	{"8", adapt(experiment.DefaultRealisticStrategyParams, experiment.QuickRealisticStrategyParams,
		func(p *experiment.RealisticStrategyParams, s int64) { p.Seed = s },
		experiment.RunStrategyComparisonRealistic, (*experiment.RealisticStrategyResult).Table)},
	{"headline", adapt(experiment.DefaultHeadlineParams, experiment.QuickHeadlineParams,
		func(p *experiment.HeadlineParams, s int64) { p.Seed = s },
		experiment.RunHeadline, (*experiment.HeadlineResult).Table)},
	{"album", adapt(experiment.DefaultAlbumParams, experiment.QuickAlbumParams,
		func(p *experiment.AlbumParams, s int64) { p.Seed = s },
		experiment.RunAlbum, (*experiment.AlbumResult).Table)},
	{"lru", adapt(experiment.DefaultMergeAblationParams, experiment.QuickMergeAblationParams,
		func(p *experiment.MergeAblationParams, s int64) { p.Drift.Seed = s },
		experiment.RunMergeAblation, (*experiment.MergeAblationResult).Table)},
	{"drop", adapt(experiment.DefaultDropSweepParams, experiment.QuickDropSweepParams,
		func(p *experiment.DropSweepParams, s int64) { p.Seed = s },
		experiment.RunDropSweep, (*experiment.DropSweepResult).Table)},
	{"mv", adapt(experiment.DefaultMultiversionParams, experiment.QuickMultiversionParams,
		func(p *experiment.MultiversionParams, s int64) { p.Seed = s },
		experiment.RunMultiversion, (*experiment.MultiversionResult).Table)},
	{"multiedge", adapt(experiment.DefaultMultiEdgeParams, experiment.QuickMultiEdgeParams,
		func(p *experiment.MultiEdgeParams, s int64) { p.Seed = s },
		experiment.RunMultiEdge, (*experiment.MultiEdgeResult).Table)},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tcache-figs:", err)
		os.Exit(1)
	}
}

func run() error {
	ids := make([]string, len(figures))
	byID := make(map[string]figure, len(figures))
	for i, f := range figures {
		ids[i] = f.id
		byID[f.id] = f
	}
	var (
		fig   = flag.String("fig", "all", "comma-separated figures to regenerate: "+strings.Join(ids, ", ")+", all")
		quick = flag.Bool("quick", false, "scaled-down parameters (fast smoke run)")
		seed  = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()

	selected := strings.Split(*fig, ",")
	if *fig == "all" {
		selected = ids
	}
	for _, id := range selected {
		f, ok := byID[id]
		if !ok {
			return fmt.Errorf("unknown figure %q (want one of %s, all)", id, strings.Join(ids, ", "))
		}
		start := time.Now()
		table, err := f.run(context.Background(), *quick, *seed)
		if err != nil {
			return fmt.Errorf("fig %s: %w", id, err)
		}
		fmt.Print(table)
		fmt.Printf("[fig %s done in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
