package experiment

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick_seed*/<id>.golden from this run")

// goldenSeeds are the seeds every figure's -quick table is pinned at.
var goldenSeeds = []int64{1, 7}

// repeatedFigure is run twice per seed: Fig. 8 keeps its two topologies
// in a map and walks both graphs, so a loop under it that has started to
// follow map order prints two different tables in one process.
const repeatedFigure = "8"

// TestFigureTablesGolden: a paper figure is counted, not timed, so it
// is a test — every Figures entry at -quick, byte for byte against the
// table committed under testdata (go test -run Golden -update rewrites
// them; review the diff like code). A change that moves no verdict
// leaves all of them alone; one that does says which figure, at which
// seed, on which line.
func TestFigureTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure at -quick for two seeds")
	}
	for _, seed := range goldenSeeds {
		for _, f := range Figures {
			t.Run(fmt.Sprintf("seed%d/%s", seed, f.ID), func(t *testing.T) {
				t.Parallel()
				got, err := f.Run(context.Background(), true, seed)
				if err != nil {
					t.Fatalf("figure %s seed %d: %v", f.ID, seed, err)
				}
				if f.ID == repeatedFigure {
					again, err := f.Run(context.Background(), true, seed)
					if err != nil {
						t.Fatalf("figure %s seed %d, second run: %v", f.ID, seed, err)
					}
					if again != got {
						t.Errorf("figure %s seed %d printed two different tables in one process:\n%s", f.ID, seed, lineDiff(got, again))
					}
				}
				path := filepath.Join("testdata", fmt.Sprintf("quick_seed%d", seed), f.ID+".golden")
				if *update {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("figure %s seed %d: %v (run with -update to create it)", f.ID, seed, err)
				}
				if got != string(want) {
					t.Errorf("figure %s seed %d differs from %s:\n%s", f.ID, seed, path, lineDiff(string(want), got))
				}
			})
		}
	}
}

// lineDiff prints the lines of want and got that differ, by position.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d\n  - %s\n  + %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
