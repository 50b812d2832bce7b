// TTL vs T-Cache: the paper's Fig. 7(c) vs Fig. 7(d) argument in one
// program. Limiting cache-entry TTL is the folklore fix for staleness;
// it buys a little consistency at a large cost in hit ratio and backend
// load. T-Cache's dependency lists buy much more consistency at almost
// no cost. This example runs both on the same product-affinity workload
// and prints them side by side.
//
// Run with: go run ./examples/ttl-vs-tcache
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"tcache/internal/core"
	"tcache/internal/experiment"
)

func main() {
	topo := experiment.TopologyParams{FullNodes: 3000, SampleTo: 600, Restart: 0.15, Seed: 1}
	drive := experiment.Drive{UpdateRate: 100, ReadRate: 500}

	dep := experiment.DepSweepParams{
		Topology:   topo,
		Bounds:     []int{0, 1, 3, 5},
		WalkSteps:  4,
		Strategy:   core.StrategyRetry,
		Warmup:     10 * time.Second,
		MeasureFor: 60 * time.Second,
		Drive:      drive,
		Seed:       1,
	}
	depRes, err := experiment.RunDepListSweep(context.Background(), dep)
	if err != nil {
		log.Fatal(err)
	}

	ttl := experiment.TTLSweepParams{
		Topology:   topo,
		TTLs:       []time.Duration{200 * time.Second, 50 * time.Second, 12 * time.Second, 3 * time.Second},
		WalkSteps:  4,
		Warmup:     10 * time.Second,
		MeasureFor: 60 * time.Second,
		Drive:      drive,
		Seed:       1,
	}
	ttlRes, err := experiment.RunTTLSweep(context.Background(), ttl)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Same workload (product-affinity topology), two staleness mitigations:")
	fmt.Println()
	for _, s := range depRes {
		if s.Kind != experiment.TopologyAmazon {
			continue
		}
		fmt.Println("T-Cache: grow the dependency lists")
		fmt.Printf("  %8s %18s %10s %14s\n", "k", "inconsistency[%]", "hit-ratio", "db-load[%]")
		for _, pt := range s.Points {
			fmt.Printf("  %8d %18.1f %10.3f %14.0f\n", pt.Bound, pt.M.InconsistencyRatio(), pt.M.HitRatio(), pt.DBAccessNormed)
		}
	}
	fmt.Println()
	for _, s := range ttlRes {
		if s.Kind != experiment.TopologyAmazon {
			continue
		}
		fmt.Println("Baseline: shrink the TTL")
		fmt.Printf("  %8s %18s %10s %14s\n", "ttl[s]", "inconsistency[%]", "hit-ratio", "db-load[%]")
		for _, pt := range s.Points {
			fmt.Printf("  %8.0f %18.1f %10.3f %14.0f\n", pt.TTL.Seconds(), pt.M.InconsistencyRatio(), pt.M.HitRatio(), pt.DBAccessNormed)
		}
	}
	fmt.Println()
	fmt.Println("T-Cache removes most inconsistency with flat hit ratio and backend load;")
	fmt.Println("the TTL baseline pays multiples of backend load for a fraction of the benefit.")
}
