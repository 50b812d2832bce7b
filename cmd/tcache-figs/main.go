// Command tcache-figs regenerates every table and figure of the paper's
// evaluation section (§V), and this repo's extensions of it, on the
// deterministic simulation harness.
//
// Usage:
//
//	tcache-figs                 # run everything at paper scale
//	tcache-figs -fig 7c,8       # some figures (-h lists the ids)
//	tcache-figs -quick          # scaled-down smoke run
//	tcache-figs -seed 7         # change the simulation seed
//
// It prints experiment.Figures and nothing else: what is timed is a
// bench/ row named in BENCHMARK.json, what is counted is a go test
// assertion (README "Where a number lives") — for these tables,
// internal/experiment's golden test. Each experiment's doc comment there
// names the paper figure it reproduces and what to look for in its
// table.
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

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tcache-figs:", err)
		os.Exit(1)
	}
}

func run() error {
	ids := make([]string, len(experiment.Figures))
	byID := make(map[string]experiment.Figure, len(experiment.Figures))
	for i, f := range experiment.Figures {
		ids[i] = f.ID
		byID[f.ID] = f
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
		table, err := f.Run(context.Background(), *quick, *seed)
		if err != nil {
			return fmt.Errorf("fig %s: %w", id, err)
		}
		fmt.Print(table)
		fmt.Printf("[fig %s done in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
