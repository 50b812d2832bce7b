package experiment

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/kv"
	"tcache/internal/monitor"
	"tcache/internal/workload"
)

func TestColumnBasicRun(t *testing.T) {
	col, err := NewColumn(ColumnConfig{DepBound: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	gen := &workload.PerfectClusters{Objects: 100, ClusterSize: 5, TxnSize: 5}
	col.SeedObjects(workload.AllObjectKeys(100))
	if err := col.WarmCache(context.Background(), workload.AllObjectKeys(100)); err != nil {
		t.Fatal(err)
	}
	if err := col.Run(context.Background(), Drive{UpdateRate: 50, ReadRate: 200, Duration: 5 * time.Second}, gen, gen); err != nil {
		t.Fatal(err)
	}
	if col.Mon.Stats().ReadOnly() == 0 {
		t.Fatal("no read-only transactions classified")
	}
	if col.Mon.Stats().Updates == 0 {
		t.Fatal("no update transactions recorded")
	}
}

// TestNewColumnClosesOnSubscribeFailure: an edge whose subscriber name is
// already taken fails the build, and the database the column was given —
// with the edges attached before the failing one — is closed, not leaked.
func TestNewColumnClosesOnSubscribeFailure(t *testing.T) {
	d := db.Open(db.Config{})
	if _, err := d.Subscribe("edge-1", func(db.Invalidation) {}); err != nil {
		t.Fatal(err)
	}
	col, err := newColumnOn(d, ColumnConfig{Edges: 2}.withDefaults())
	if !errors.Is(err, db.ErrDuplicateSubscriber) || col != nil {
		t.Fatalf("newColumnOn with edge-1 taken = %v, %v; want nil, ErrDuplicateSubscriber", col, err)
	}
	if _, err := d.CommitUpdate(context.Background(), []kv.ObservedRead{{Key: "k"}}, nil); !errors.Is(err, db.ErrClosed) {
		t.Fatalf("read on the failed column's database = %v, want db.ErrClosed", err)
	}
}

// TestColumnEdgesIndependent: three edges on one database. Every edge's
// monitor sees every commit; the edges' invalidation links share a loss
// rate but not their losses; and Measure's per-edge deltas sum to the
// Measurement they come in.
func TestColumnEdgesIndependent(t *testing.T) {
	ctx := context.Background()
	col, err := NewColumn(ColumnConfig{Edges: 3, DepBound: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	if len(col.edges) != 3 || col.Cache != col.edges[0].cache || col.Mon != col.edges[0].mon {
		t.Fatalf("3-edge column has %d edges; Cache/Mon are not edge 0's", len(col.edges))
	}
	gen := &workload.PerfectClusters{Objects: 100, ClusterSize: 5, TxnSize: 5}
	col.SeedObjects(workload.AllObjectKeys(100))
	if err := col.WarmCache(ctx, workload.AllObjectKeys(100)); err != nil {
		t.Fatal(err)
	}
	m, err := col.Measure(func() error {
		return col.Run(ctx, Drive{UpdateRate: 50, ReadRate: 200, Duration: 10 * time.Second}, gen, gen)
	})
	if err != nil {
		t.Fatal(err)
	}

	commits := col.DB.Metrics().TxnsCommitted
	if commits == 0 {
		t.Fatal("no update committed; test has no power")
	}
	var mon monitor.Stats
	var cache core.MetricsSnapshot
	drops := make(map[uint64]bool)
	for e, ed := range col.edges {
		if got := ed.mon.Stats().Updates; got != commits {
			t.Errorf("edge %d's monitor recorded %d updates, the database committed %d", e, got, commits)
		}
		if m.Edges[e].Mon.ReadOnly() == 0 || m.Edges[e].Cache.Hits == 0 {
			t.Errorf("edge %d served no read-only transactions: %+v", e, m.Edges[e].Mon)
		}
		link := ed.link.Stats()
		if link.Dropped == 0 || link.Delivered == 0 {
			t.Errorf("edge %d's link: %+v, want both drops and deliveries at 20%% loss", e, link)
		}
		drops[link.Dropped] = true
		mon, cache = sum(mon, m.Edges[e].Mon), sum(cache, m.Edges[e].Cache)
	}
	// Same rate, separately seeded: three links that lost exactly the
	// same number of the same invalidations would be one link.
	if len(drops) == 1 {
		t.Errorf("all three links dropped the same number of invalidations: %v", drops)
	}
	if mon != m.Mon || cache != m.Cache {
		t.Errorf("per-edge deltas do not sum to the Measurement:\n mon   %+v vs %+v\n cache %+v vs %+v", mon, m.Mon, cache, m.Cache)
	}
	if m.Mon.Updates != 3*m.DB.TxnsCommitted {
		t.Errorf("Measurement.Mon.Updates = %d, want one per edge per commit (3 × %d)", m.Mon.Updates, m.DB.TxnsCommitted)
	}
}

// TestRunAroundSeesEveryTransaction: Drive.Around runs once around every
// transaction Run schedules — each update, and each read of every edge —
// and wrapping them changes nothing: the same seed ends in the same
// counters with and without it.
func TestRunAroundSeesEveryTransaction(t *testing.T) {
	ctx := context.Background()
	run := func(around func(bool, func() error) error) Measurement {
		col, err := NewColumn(ColumnConfig{Edges: 2, DepBound: 3, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		defer col.Close()
		gen := &workload.PerfectClusters{Objects: 100, ClusterSize: 5, TxnSize: 5}
		col.SeedObjects(workload.AllObjectKeys(100))
		m, err := col.Measure(func() error {
			return col.Run(ctx, Drive{UpdateRate: 50, ReadRate: 100, Duration: 3 * time.Second, Around: around}, gen, gen)
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	var updates, reads uint64
	wrapped := run(func(update bool, txn func() error) error {
		if update {
			updates++
		} else {
			reads++
		}
		return txn()
	})
	if updates == 0 || updates != wrapped.DB.TxnsCommitted {
		t.Errorf("Around saw %d updates, the database committed %d", updates, wrapped.DB.TxnsCommitted)
	}
	if reads == 0 || reads != wrapped.Mon.ReadOnly() || reads != wrapped.Cache.TxnsStarted {
		t.Errorf("Around saw %d reads; the monitors classified %d, the caches started %d", reads, wrapped.Mon.ReadOnly(), wrapped.Cache.TxnsStarted)
	}
	if bare := run(nil); !reflect.DeepEqual(bare, wrapped) {
		t.Errorf("wrapping changed the run:\n bare    %+v\n wrapped %+v", bare, wrapped)
	}
}

func TestColumnDeterministic(t *testing.T) {
	run := func() (uint64, uint64) {
		col, err := NewColumn(ColumnConfig{DepBound: 3, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		defer col.Close()
		gen := &workload.ParetoClusters{Objects: 200, ClusterSize: 5, TxnSize: 5, Alpha: 1}
		col.SeedObjects(workload.AllObjectKeys(200))
		if err := col.Run(context.Background(), Drive{UpdateRate: 50, ReadRate: 200, Duration: 10 * time.Second}, gen, gen); err != nil {
			t.Fatal(err)
		}
		s := col.Mon.Stats()
		return s.CommittedInconsistent, s.AbortedInconsistent
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("runs diverged: (%d,%d) vs (%d,%d)", a1, b1, a2, b2)
	}
}

func TestMeasureDeltas(t *testing.T) {
	col, err := NewColumn(ColumnConfig{DepBound: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	gen := &workload.PerfectClusters{Objects: 100, ClusterSize: 5, TxnSize: 5}
	col.SeedObjects(workload.AllObjectKeys(100))
	if err := col.Run(context.Background(), Drive{UpdateRate: 50, ReadRate: 100, Duration: 3 * time.Second}, gen, gen); err != nil {
		t.Fatal(err)
	}
	m, err := col.Measure(func() error {
		return col.Run(context.Background(), Drive{UpdateRate: 50, ReadRate: 100, Duration: 5 * time.Second}, gen, gen)
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Duration < 5*time.Second {
		t.Fatalf("measured duration = %v", m.Duration)
	}
	// Deltas, not totals: roughly 5s of load at the configured rates.
	if m.Mon.ReadOnly() > 600 {
		t.Fatalf("measurement window counted too many txns: %d (not a delta?)", m.Mon.ReadOnly())
	}
	shares := m.ConsistentPct() + m.InconsistentPct() + m.AbortedPct()
	if shares < 99.9 || shares > 100.1 {
		t.Fatalf("outcome shares sum to %v", shares)
	}
}

// TestMeasureSubtractsEveryCounter: a Measurement field is after −
// before for every counter its snapshot type declares, including ones
// the figures do not read — here the batch-prefetch counters, moved by a
// cold ReadMulti inside the window.
func TestMeasureSubtractsEveryCounter(t *testing.T) {
	ctx := context.Background()
	col, err := NewColumn(ColumnConfig{DepBound: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	gen := &workload.PerfectClusters{Objects: 100, ClusterSize: 5, TxnSize: 5}
	col.SeedObjects(workload.AllObjectKeys(105)) // the generators never touch the last five
	drive := Drive{UpdateRate: 50, ReadRate: 100, Duration: 2 * time.Second}
	if err := col.Run(ctx, drive, gen, gen); err != nil {
		t.Fatal(err)
	}

	mon0, cache0, db0 := col.Mon.Stats(), col.Cache.Metrics(), col.DB.Metrics()
	m, err := col.Measure(func() error {
		txn := col.Cache.Begin(kv.TxnID(1)<<40, time.Time{})
		_, err := txn.ReadMulti(ctx, workload.AllObjectKeys(105)[100:])
		if ferr := txn.Finish(err == nil); err == nil {
			err = ferr
		}
		if err != nil {
			return err
		}
		return col.Run(ctx, drive, gen, gen)
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cache.BatchPrefetches != 1 || m.Cache.BatchPrefetchedKeys != 5 {
		t.Errorf("window's cold ReadMulti: BatchPrefetches = %d, BatchPrefetchedKeys = %d, want 1 and 5",
			m.Cache.BatchPrefetches, m.Cache.BatchPrefetchedKeys)
	}
	for _, c := range []struct {
		name               string
		got, after, before any
	}{
		{"Mon", m.Mon, col.Mon.Stats(), mon0},
		{"Cache", m.Cache, col.Cache.Metrics(), cache0},
		{"DB", m.DB, col.DB.Metrics(), db0},
	} {
		got, after, before := reflect.ValueOf(c.got), reflect.ValueOf(c.after), reflect.ValueOf(c.before)
		for i := 0; i < got.NumField(); i++ {
			if want := after.Field(i).Uint() - before.Field(i).Uint(); got.Field(i).Uint() != want {
				t.Errorf("Measurement.%s.%s = %d, want %d (after %d − before %d)", c.name, got.Type().Field(i).Name,
					got.Field(i).Uint(), want, after.Field(i).Uint(), before.Field(i).Uint())
			}
		}
	}
}

func TestAlphaSweepShape(t *testing.T) {
	res, err := RunAlphaSweep(context.Background(), QuickAlphaParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	lo, mid, hi := res.Points[0].M.DetectionRatio(), res.Points[1].M.DetectionRatio(), res.Points[2].M.DetectionRatio()
	// Fig. 3 shape: detection grows with clustering.
	if !(hi > mid && mid > lo) {
		t.Fatalf("detection not increasing in alpha: %v / %v / %v", lo, mid, hi)
	}
	// At alpha=4 accesses are almost perfectly clustered: near-perfect
	// detection (the paper reaches 100%).
	if hi < 90 {
		t.Fatalf("alpha=4 detection = %.1f, want >90", hi)
	}
	if len(res.Table()) == 0 {
		t.Fatal("empty table")
	}
}

func TestConvergenceShape(t *testing.T) {
	res, err := RunConvergence(context.Background(), QuickConvergenceParams())
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 4 shape: before the switch inconsistencies slip through
	// (uniform access defeats the dependency lists); after the switch
	// the inconsistent share collapses and aborts rise.
	preC, preI, preA := res.WindowShares(1, res.SwitchBucket)
	post := len(res.Series)
	postC, postI, postA := res.WindowShares(res.SwitchBucket+2, post)
	_ = preC
	_ = postC
	if preI <= postI {
		t.Fatalf("inconsistent share did not drop after clustering: pre %.1f → post %.1f", preI, postI)
	}
	if postA <= preA {
		t.Fatalf("abort share did not rise after clustering: pre %.1f → post %.1f", preA, postA)
	}
	// The paper's Fig. 4 keeps a thin inconsistent band after convergence:
	// update transactions that write only part of a cluster propagate
	// dependency info with a one-write lag. Require a collapse (>4x) to a
	// small residual rather than exactly zero.
	if postI > 5 || postI > preI/4 {
		t.Fatalf("post-switch inconsistency %.2f%% did not collapse (pre %.2f%%)", postI, preI)
	}
	if len(res.Table()) == 0 {
		t.Fatal("empty table")
	}
}

func TestDriftShape(t *testing.T) {
	res, err := RunDrift(context.Background(), QuickDriftParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shifts) == 0 {
		t.Fatal("no shifts happened")
	}
	// Fig. 5 shape: inconsistency spikes right after a shift, then
	// decays. Compare the bucket after each shift with the bucket just
	// before the next shift.
	spike, settled := 0.0, 0.0
	n := 0
	for _, s := range res.Shifts {
		if s+1 >= len(res.Series) {
			continue
		}
		spike += res.Series[s].InconsistencyRatio() + res.Series[s+1].InconsistencyRatio()
		settleIdx := s + int(res.Params.ShiftEvery/res.Params.Bucket) - 1
		if settleIdx < len(res.Series) {
			settled += res.Series[settleIdx].InconsistencyRatio()
			n++
		}
	}
	if n == 0 {
		t.Fatal("no complete shift windows")
	}
	if spike == 0 {
		t.Fatal("shifts caused no inconsistency spike")
	}
	if settled >= spike {
		t.Fatalf("inconsistency did not decay: spikes %.2f vs settled %.2f", spike, settled)
	}
	if len(res.Table()) == 0 {
		t.Fatal("empty table")
	}
}

func TestStrategyComparisonShape(t *testing.T) {
	res, err := RunStrategyComparison(context.Background(), QuickStrategyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	abort, _ := res.Row(core.StrategyAbort)
	evict, _ := res.Row(core.StrategyEvict)
	retry, _ := res.Row(core.StrategyRetry)
	// Fig. 6 shape: EVICT reduces uncommittable transactions relative to
	// ABORT; RETRY reduces them further (or at least as much).
	if evict.Uncommittable() >= abort.Uncommittable() {
		t.Fatalf("EVICT uncommittable %.2f not below ABORT %.2f",
			evict.Uncommittable(), abort.Uncommittable())
	}
	if retry.Uncommittable() > evict.Uncommittable()*1.1 {
		t.Fatalf("RETRY uncommittable %.2f well above EVICT %.2f",
			retry.Uncommittable(), evict.Uncommittable())
	}
	// ABORT detects a solid share of inconsistencies (paper: >55%).
	if abort.M.DetectionRatio() < 40 {
		t.Fatalf("ABORT detection = %.1f, want substantial", abort.M.DetectionRatio())
	}
	if len(res.Table()) == 0 {
		t.Fatal("empty table")
	}
}

func TestTopologyStatsShape(t *testing.T) {
	ts, err := DescribeTopologies(QuickTopologyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("topologies = %d", len(ts))
	}
	var amazon, orkut TopologyStats
	for _, s := range ts {
		switch s.Kind {
		case TopologyAmazon:
			amazon = s
		case TopologyOrkut:
			orkut = s
		}
	}
	// Fig. 7(a,b): both visibly clustered, Amazon more so.
	if amazon.Clustering <= orkut.Clustering {
		t.Fatalf("amazon clustering %.3f not above orkut %.3f",
			amazon.Clustering, orkut.Clustering)
	}
	if amazon.Nodes != 300 || orkut.Nodes != 300 {
		t.Fatalf("sampled sizes: %d, %d", amazon.Nodes, orkut.Nodes)
	}
	if len(TopologyTable(ts)) == 0 {
		t.Fatal("empty table")
	}
}

func TestDepListSweepShape(t *testing.T) {
	res, err := RunDepListSweep(context.Background(), QuickDepSweepParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("series = %d", len(res))
	}
	for _, s := range res {
		if len(s.Points) != 2 {
			t.Fatalf("%s points = %d", s.Kind, len(s.Points))
		}
		k0, k3 := s.Points[0], s.Points[1]
		// Fig. 7c shape: dependency lists cut inconsistency sharply...
		if k0.M.InconsistencyRatio() == 0 {
			t.Fatalf("%s: k=0 shows no inconsistency; experiment has no power", s.Kind)
		}
		if k3.M.InconsistencyRatio() >= k0.M.InconsistencyRatio()*0.6 {
			t.Fatalf("%s: k=3 inconsistency %.2f not well below k=0 %.2f",
				s.Kind, k3.M.InconsistencyRatio(), k0.M.InconsistencyRatio())
		}
		// ...with no visible effect on hit ratio or DB load.
		if k0.M.HitRatio()-k3.M.HitRatio() > 0.02 {
			t.Fatalf("%s: hit ratio degraded: %.3f → %.3f", s.Kind, k0.M.HitRatio(), k3.M.HitRatio())
		}
		if k3.DBAccessNormed > 115 {
			t.Fatalf("%s: db load grew to %.1f%%", s.Kind, k3.DBAccessNormed)
		}
	}
	if len(DepSweepTable(res)) == 0 {
		t.Fatal("empty table")
	}
}

func TestTTLSweepShape(t *testing.T) {
	res, err := RunTTLSweep(context.Background(), QuickTTLSweepParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res {
		if len(s.Points) != 2 {
			t.Fatalf("%s points = %d", s.Kind, len(s.Points))
		}
		long, short := s.Points[0], s.Points[1]
		// Fig. 7d shape: shrinking the TTL reduces inconsistency but
		// costs hit ratio and DB load.
		if short.M.InconsistencyRatio() >= long.M.InconsistencyRatio() {
			t.Fatalf("%s: ttl=%v inconsistency %.2f not below ttl=%v %.2f",
				s.Kind, short.TTL, short.M.InconsistencyRatio(), long.TTL, long.M.InconsistencyRatio())
		}
		if short.M.HitRatio() >= long.M.HitRatio() {
			t.Fatalf("%s: short TTL did not cost hit ratio (%.3f vs %.3f)",
				s.Kind, short.M.HitRatio(), long.M.HitRatio())
		}
		if short.DBAccessNormed <= long.DBAccessNormed {
			t.Fatalf("%s: short TTL did not increase DB load (%.1f vs %.1f)",
				s.Kind, short.DBAccessNormed, long.DBAccessNormed)
		}
	}
	if len(TTLSweepTable(res)) == 0 {
		t.Fatal("empty table")
	}
}

func TestRealisticStrategyShape(t *testing.T) {
	res, err := RunStrategyComparisonRealistic(context.Background(), QuickRealisticStrategyParams())
	if err != nil {
		t.Fatal(err)
	}
	amazon := res.PerTopology[TopologyAmazon]
	orkut := res.PerTopology[TopologyOrkut]
	if amazon == nil || orkut == nil {
		t.Fatal("missing topology results")
	}
	// Fig. 8 shape: detection is better on the better-clustered Amazon
	// topology.
	aAbort, _ := amazon.Row(core.StrategyAbort)
	oAbort, _ := orkut.Row(core.StrategyAbort)
	if aAbort.M.DetectionRatio() <= oAbort.M.DetectionRatio() {
		t.Fatalf("amazon detection %.1f not above orkut %.1f",
			aAbort.M.DetectionRatio(), oAbort.M.DetectionRatio())
	}
	for kind, sr := range res.PerTopology {
		abort, _ := sr.Row(core.StrategyAbort)
		evict, _ := sr.Row(core.StrategyEvict)
		if evict.Uncommittable() >= abort.Uncommittable() {
			t.Fatalf("%s: EVICT %.2f not below ABORT %.2f",
				kind, evict.Uncommittable(), abort.Uncommittable())
		}
	}
	if len(res.Table()) == 0 {
		t.Fatal("empty table")
	}
}

func TestHeadlineShape(t *testing.T) {
	res, err := RunHeadline(context.Background(), QuickRealisticStrategyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// §I: T-Cache detects a substantial share of inconsistencies and
		// raises the consistent-commit rate, at nominal overhead.
		if row.Detection <= 20 {
			t.Fatalf("%s: detection %.1f too low", row.Kind, row.Detection)
		}
		if row.TCacheInconsistency >= row.BaselineInconsistency {
			t.Fatalf("%s: no inconsistency reduction (%.1f vs %.1f)",
				row.Kind, row.TCacheInconsistency, row.BaselineInconsistency)
		}
		if row.ConsistentRateIncrease <= 0 {
			t.Fatalf("%s: consistent rate did not increase (%.1f%%)",
				row.Kind, row.ConsistentRateIncrease)
		}
		if row.HitRatioDelta < -0.02 {
			t.Fatalf("%s: hit ratio dropped by %.3f", row.Kind, -row.HitRatioDelta)
		}
	}
	if len(res.Table()) == 0 {
		t.Fatal("empty table")
	}
}
