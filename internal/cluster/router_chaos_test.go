package cluster_test

import (
	"fmt"
	"testing"
	"time"

	"tcache/internal/chaos"
	"tcache/internal/cluster"
)

// TestRouterFailoverThroughChaosLink routes one node of a two-node fleet
// through a chaos proxy and drives the full health cycle with link
// faults instead of process kills: a partition ejects the node, reads
// keep flowing from the survivor, and healing the link re-admits it into
// probation.
func TestRouterFailoverThroughChaosLink(t *testing.T) {
	r := newRig(t, 2)
	keys := testKeys(24)
	r.set(keys, "v1")

	// Kills only: on a multiplexed request/response link the realistic
	// TCP fault is connection death (loss and reorder surface as exactly
	// that); byte-level loss chaos belongs to the replication stream
	// tests, whose protocol detects gaps and resyncs.
	link := chaos.NewLink(chaos.ConnConfig{KillRate: 0.05, Seed: 11})
	paddr, stopProxy, err := link.Proxy(r.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer stopProxy()

	router, err := cluster.NewRouter(bg, fastConfig([]string{r.addrs[0], paddr}))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	read := func() {
		t.Helper()
		lookups, err := router.ReadItems(bg, keys)
		if err != nil {
			t.Fatalf("batch read: %v", err)
		}
		for i, lu := range lookups {
			if !lu.Found {
				t.Fatalf("key %s not found", keys[i])
			}
		}
	}
	// Reads survive the link's kill/delay/reorder faults: a flaky node
	// either answers or the batch re-routes to the survivor.
	for i := 0; i < 30; i++ {
		read()
	}

	// Partition the link: the proxied node must be ejected, and reads
	// must keep resolving entirely from the survivor.
	link.Partition()
	waitFor(t, 5*time.Second, "ejection of the partitioned node", func() bool {
		return router.Nodes()[1].State == cluster.NodeEjected
	})
	for i := 0; i < 10; i++ {
		read()
	}

	// Heal: the node's watcher re-admits it into probation, and its
	// floored reads serve correctly.
	link.Heal()
	link.SetConfig(chaos.ConnConfig{})
	waitFor(t, 5*time.Second, "re-admission after heal", func() bool {
		s := router.Nodes()[1].State
		return s == cluster.NodeProbation || s == cluster.NodeUp
	})
	r.set(keys[:1], "v2")
	for i := 0; i < 10; i++ {
		read()
	}
	if item, ok, err := router.ReadItem(bg, keys[0]); err != nil || !ok || string(item.Value) != "v2" {
		t.Fatalf("post-heal read: %q ok=%v err=%v", item.Value, ok, err)
	}
}

// TestReadItemsMatchesPerKeyReadsAcrossNodeKill is the differential test
// with a node killed in the middle of a batch stream: every batch that
// is answered, before, during and after the failover, equals the per-key
// reads. (The marks are not compared: a batch that fails part-way has
// already raised them for the sub-batches that were answered.)
func TestReadItemsMatchesPerKeyReadsAcrossNodeKill(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			d := newDiffRig(t, seed, 3, fastConfig)
			killed := make(chan struct{})
			answered := 0
			for trial := 0; trial < 200; trial++ {
				if trial == 50 {
					go func() {
						defer close(killed)
						d.kill(int(seed) % 3)
					}()
				}
				if d.check(t, trial, d.draw(), false) {
					answered++
				}
			}
			<-killed
			// Detection may cost a few reads; a fleet with two survivors
			// must answer nearly all of them.
			if answered < 190 {
				t.Fatalf("seed %d: only %d of 200 batches answered across the kill", seed, answered)
			}
		})
	}
}
