// Social: a social-network column on the deterministic simulation clock.
// The workload follows §V-B of the paper: a synthetic Orkut-like
// friendship topology is down-sampled by random walks to 1000 users, and
// every transaction — profile updates and timeline reads alike — is a
// 5-step random walk over the friendship graph. Invalidations from the
// database to the edge cache are delayed and 20% of them are lost.
//
// The example prints the same efficacy metrics the paper reports and
// contrasts a consistency-unaware cache (k=0) with T-Cache (k=3).
//
// Run with: go run ./examples/social
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"tcache/internal/core"
	"tcache/internal/experiment"
	"tcache/internal/graph"
)

func main() {
	full := graph.GenerateSocial(graph.DefaultSocialConfig(6000))
	sampled := graph.RandomWalkSample(full, 1000, 0.15, 1)
	fmt.Printf("topology: %d users, %d friendships, clustering %.3f\n",
		sampled.NumNodes(), sampled.NumEdges(), sampled.AverageClustering())

	p := experiment.DepSweepParams{
		Topology:   experiment.DefaultTopologyParams(),
		Bounds:     []int{0, 3},
		WalkSteps:  4,
		Strategy:   core.StrategyRetry,
		Warmup:     10 * time.Second,
		MeasureFor: 60 * time.Second,
		Drive:      experiment.Drive{UpdateRate: 100, ReadRate: 500},
		Seed:       1,
	}
	series, err := experiment.RunDepListSweep(context.Background(), p)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range series {
		if s.Kind != experiment.TopologyOrkut {
			continue
		}
		base, tc := s.Points[0], s.Points[1]
		fmt.Println()
		fmt.Printf("plain cache (k=0):   %.1f%% of timeline reads showed torn state; hit ratio %.3f\n",
			base.M.InconsistencyRatio(), base.M.HitRatio())
		fmt.Printf("T-Cache (k=3,RETRY): %.1f%% torn; hit ratio %.3f; DB load %.0f%% of baseline\n",
			tc.M.InconsistencyRatio(), tc.M.HitRatio(), tc.DBAccessNormed)
		fmt.Printf("reduction:           %.0f%% of inconsistencies eliminated with 3-entry dependency lists\n",
			100*(1-tc.M.InconsistencyRatio()/base.M.InconsistencyRatio()))
	}
}
