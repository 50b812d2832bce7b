package main

import (
	"time"

	"tcache/internal/evict"
)

// Everything that shapes the load is a constant here, identical for
// every commit that is measured: a later PR compares itself against its
// parent with this file unchanged. BENCHMARK.json's schema has no room
// for them, so this file is where they are frozen.

const (
	clusterSize = 5    // keys per cluster, and per read/update txn
	zipfTheta   = 0.99 // cluster popularity skew
	edgeNodes   = 3

	// edge_hit and rmw_mix: small fixed-size objects that fit every cache.
	smallObjects    = 2000
	smallValueBytes = 128

	// edge_miss: working set ≫ caches, mixed sizes, a few scans.
	missObjects    = 20000
	missMinBytes   = 64
	missMaxBytes   = 4096
	valueSizeAlpha = 1.0  // bounded-Pareto shape of the value sizes
	missScanShare  = 0.02 // of read txns
	scanKeys       = 40   // consecutive keys per scan
	// Cache budgets as divisors of the data set's charged bytes.
	missClientDiv = 16            // client: 1/16 of all item bytes
	missEdgeDiv   = edgeNodes * 2 // each edge: 1/2 of its third

	entryOverhead = evict.EntryOverhead

	// Fixed open-loop rates, ops/s. Calibrated once at ≈50 % of the
	// closed-loop capacity measured on the 2-CPU reference box (see
	// README.md, "How the rates were calibrated"), rounded to two
	// digits, and never derived at run time.
	rateEdgeMissRead = 4000
	rateRmwRead      = 500
	rateRmwUpdate    = 500

	// rmw_mix's writer pool: commits block on fsync and the standby's
	// ack, and group commit only exists when commits overlap.
	writersPerCPU = 4

	// openWorkers bounds the ops an open-loop phase keeps in flight; at
	// the frozen rates a healthy phase uses a handful.
	openWorkers = 64
	// readAttempts bounds the caller-side retries of a read txn that
	// surfaced ErrTxnAborted (an eq.1 violation RETRY cannot repair).
	readAttempts     = 8
	readRetryBackoff = 250 * time.Microsecond // × attempt number

	// Throughput is the median over windows of this length, which keeps
	// one stalled window (a GC cycle, a noisy neighbour) out of the
	// reported number.
	throughputWindow = 250 * time.Millisecond

	// paper_sim's set-up is repeated and its median reported (the socket
	// workloads repeat set-up and measurement together, see runSocket).
	setupRepeats = 3
	// warmTxns closed-loop transactions fill the caches before timing.
	warmTxnsMiss = 30000
	warmTxnsRmw  = 4000

	// paper_sim: the paper's §IV drive on the simulation clock.
	simUpdateRate = 100 // update txns per simulated second
	simReadRate   = 500 // read txns per simulated second
	simDepBound   = 3
	simWalkSteps  = 4 // 5 objects per txn
	simWarmup     = 20 * time.Second
	// Simulated seconds measured per strategy for each second of
	// -seconds: at the declared run_seconds (20) the window is 600
	// simulated seconds, where detection and RETRY inconsistency both
	// repeat within a tenth across seeds (120 s does not: 6.0–7.2 %).
	simSecondsPerSecond = 30
	// The paper's claim is "detects 43–70 %"; a run below this floor
	// fails its output check.
	simDetectFloorPct = 40

	spanCap = 1 << 21 // spans kept per recorder; later ones are counted, not kept
)

// phases splits one run's -seconds between its timed phases.
type phases struct {
	closed, open time.Duration
}

// splitSeconds gives a workload with both phases half each; a
// closed-loop-only workload gets everything.
func splitSeconds(seconds float64, both bool) phases {
	total := time.Duration(seconds * float64(time.Second))
	if !both {
		return phases{closed: total}
	}
	return phases{closed: total / 2, open: total - total/2}
}
