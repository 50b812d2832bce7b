package experiment

import (
	"context"
	"testing"
	"time"

	"tcache/internal/core"
	"tcache/internal/kv"
	"tcache/internal/workload"
)

func TestAlbumPinningHelps(t *testing.T) {
	res, err := RunAlbum(context.Background(), QuickAlbumParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	plain, _ := res.Row("lru-only")
	pinned, _ := res.Row("pinned-acl")
	perKey, _ := res.Row("per-key-bound")

	// §VII: pinning the picture→ACL dependency must catch stale-ACL
	// renders that pure bound-1 LRU misses.
	if pinned.M.InconsistencyRatio() >= plain.M.InconsistencyRatio() {
		t.Fatalf("pinning did not reduce inconsistency: %.2f vs %.2f",
			pinned.M.InconsistencyRatio(), plain.M.InconsistencyRatio())
	}
	if pinned.M.DetectionRatio() <= plain.M.DetectionRatio() {
		t.Fatalf("pinning did not improve detection: %.1f vs %.1f",
			pinned.M.DetectionRatio(), plain.M.DetectionRatio())
	}
	// Longer ACL lists must also help over the flat short bound.
	if perKey.M.InconsistencyRatio() >= plain.M.InconsistencyRatio() {
		t.Fatalf("per-key bounds did not reduce inconsistency: %.2f vs %.2f",
			perKey.M.InconsistencyRatio(), plain.M.InconsistencyRatio())
	}
	if len(res.Table()) == 0 {
		t.Fatal("empty table")
	}
}

func TestMergeAblationRecencyWins(t *testing.T) {
	res, err := RunMergeAblation(context.Background(), QuickDriftParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	recency, positional := res.Rows[0], res.Rows[1]
	if recency.Policy != "recency-lru" || positional.Policy != "positional" {
		t.Fatalf("row order: %+v", res.Rows)
	}
	// The version-recency LRU must recover from drift at least as well
	// as positional inheritance; under drift it should be strictly
	// better (stale entries squat under the positional policy).
	if recency.M.InconsistencyRatio() > positional.M.InconsistencyRatio() {
		t.Fatalf("recency LRU (%.3f%%) worse than positional (%.3f%%)",
			recency.M.InconsistencyRatio(), positional.M.InconsistencyRatio())
	}
	if len(res.Table()) == 0 {
		t.Fatal("empty table")
	}
}

func TestDropSweepShape(t *testing.T) {
	res, err := RunDropSweep(context.Background(), QuickDropSweepParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	low, high := res.Points[0], res.Points[1]
	// More loss → more staleness exposure at k=0.
	if high.Exposure.InconsistencyRatio() <= low.Exposure.InconsistencyRatio() {
		t.Fatalf("exposure not increasing in drop rate: %.1f vs %.1f",
			low.Exposure.InconsistencyRatio(), high.Exposure.InconsistencyRatio())
	}
	// T-Cache on the perfectly clustered workload keeps committed
	// inconsistency far below exposure even at extreme loss.
	if high.M.InconsistencyRatio() >= high.Exposure.InconsistencyRatio()/4 {
		t.Fatalf("T-Cache inconsistency %.2f not well below exposure %.1f",
			high.M.InconsistencyRatio(), high.Exposure.InconsistencyRatio())
	}
	// The price of loss is aborts, which must grow with the drop rate.
	if high.M.AbortedPct() <= low.M.AbortedPct() {
		t.Fatalf("aborts not increasing in drop rate: %.1f vs %.1f",
			low.M.AbortedPct(), high.M.AbortedPct())
	}
	if len(res.Table()) == 0 {
		t.Fatal("empty table")
	}
}

func TestAbortSoundnessProperty(t *testing.T) {
	// Every abort T-Cache performs must be justified: the would-be read
	// set (returned reads plus the blocked read) is genuinely
	// non-serializable, so the monitor's AbortedConsistent counter —
	// spurious aborts — must stay zero. This holds for all strategies
	// and bounds because a dependency entry (k,v) can only exist in an
	// object whose version is ≥ v (the §III-A aggregation rule).
	for _, strategy := range []core.Strategy{core.StrategyAbort, core.StrategyEvict, core.StrategyRetry} {
		for _, bound := range []int{1, 3, 5} {
			col, err := NewColumn(ColumnConfig{
				DepBound: bound,
				Strategy: strategy,
				DropRate: 0.4,
				Seed:     int64(bound) * 17,
			})
			if err != nil {
				t.Fatal(err)
			}
			gen := &workload.ParetoClusters{Objects: 300, ClusterSize: 5, TxnSize: 5, Alpha: 1}
			col.SeedObjects(workload.AllObjectKeys(300))
			if err := col.Run(context.Background(), Drive{UpdateRate: 100, ReadRate: 500, Duration: 20e9}, gen, gen); err != nil {
				col.Close()
				t.Fatal(err)
			}
			s := col.Mon.Stats()
			col.Close()
			if s.AbortedConsistent != 0 {
				t.Fatalf("%s k=%d: %d spurious aborts (stats %+v)",
					strategy, bound, s.AbortedConsistent, s)
			}
			if s.AbortedInconsistent == 0 {
				t.Fatalf("%s k=%d: no aborts at all; test has no power", strategy, bound)
			}
		}
	}
}

// TestTheorem1OnTopologies is Theorem 1 at column level on the paper's
// own workloads: with unbounded dependency lists the cache detects every
// inconsistency, so under each strategy the exact monitor finds no
// committed inconsistent transaction — at a loss rate high enough that
// the checks fire hundreds of times per trial.
func TestTheorem1OnTopologies(t *testing.T) {
	for _, kind := range topologies {
		tr, err := graphTrial(kind, QuickTopologyParams(), 4)
		if err != nil {
			t.Fatal(err)
		}
		tr.drive = Drive{UpdateRate: 100, ReadRate: 500}
		tr.warmup, tr.window = 2*time.Second, 8*time.Second
		for _, strategy := range []core.Strategy{core.StrategyAbort, core.StrategyEvict, core.StrategyRetry} {
			tr.cfg = ColumnConfig{DepBound: kv.Unbounded, Strategy: strategy, DropRate: 0.5, Seed: 1}
			m, _, err := tr.run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if m.Mon.CommittedInconsistent != 0 {
				t.Errorf("%s %s: %d committed inconsistent transactions with unbounded lists (stats %+v)",
					kind, strategy, m.Mon.CommittedInconsistent, m.Mon)
			}
			t.Logf("%s %s: %d commits, %d detections", kind, strategy, m.Mon.Committed(), m.Cache.Detected)
			if m.Mon.Committed() == 0 || m.Cache.Detected == 0 {
				t.Errorf("%s %s: %d commits, %d detections; test has no power",
					kind, strategy, m.Mon.Committed(), m.Cache.Detected)
			}
		}
	}
}
