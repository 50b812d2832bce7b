package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/kv"
	"tcache/internal/stats"
	"tcache/internal/workload"
)

// This file holds the experiments that go beyond the paper's figures:
// the §VII future directions made concrete (pinned dependencies and
// per-object dependency-list bounds on a web-album workload) and two
// ablations of design choices (the version-recency LRU pruning of
// dependency lists and the invalidation drop rate).

// AlbumParams parameterizes the §VII web-album experiment.
type AlbumParams struct {
	Album      *workload.Album
	DepBound   int // the short per-picture bound under pressure
	ACLBound   int // the long bound given to ACL objects in the per-key config
	Warmup     time.Duration
	MeasureFor time.Duration
	Drive      Drive
	Seed       int64
}

// DefaultAlbumParams stresses bound-1 picture lists, where the ACL
// dependency is immediately displaced unless pinned.
func DefaultAlbumParams() AlbumParams {
	return AlbumParams{
		Album:      workload.DefaultAlbum(),
		DepBound:   1,
		ACLBound:   8,
		Warmup:     20 * time.Second,
		MeasureFor: 90 * time.Second,
		Drive:      Drive{UpdateRate: 100, ReadRate: 500},
		Seed:       1,
	}
}

// QuickAlbumParams is a scaled-down variant for tests.
func QuickAlbumParams() AlbumParams {
	p := DefaultAlbumParams()
	p.Album.Albums = 40
	p.Warmup = 5 * time.Second
	p.MeasureFor = 25 * time.Second
	return p
}

// AlbumRow is one configuration's outcome.
type AlbumRow struct {
	Config        string
	Inconsistency float64
	Detection     float64
	HitRatio      float64
	M             Measurement
}

// AlbumResult compares plain LRU, pinned ACL dependencies, and per-key
// bounds on the same album workload.
type AlbumResult struct {
	Params AlbumParams
	Rows   []AlbumRow
}

// RunAlbum runs the three configurations.
func RunAlbum(ctx context.Context, p AlbumParams) (*AlbumResult, error) {
	w := p.Album
	pins := make(map[kv.Key][]kv.Key, w.Albums*w.PicturesPer)
	for a := 0; a < w.Albums; a++ {
		for _, pic := range w.PictureKeys(a) {
			pins[pic] = []kv.Key{w.ACLKey(a)}
		}
	}
	isACL := func(k kv.Key) bool { return strings.HasSuffix(string(k), "/acl") }

	configs := []struct {
		name string
		cfg  ColumnConfig
	}{
		{"lru-only", ColumnConfig{DepBound: p.DepBound}},
		{"pinned-acl", ColumnConfig{DepBound: p.DepBound, Pins: pins}},
		{"per-key-bound", ColumnConfig{
			DepBound: p.DepBound,
			DepBoundFor: func(k kv.Key) int {
				if isACL(k) {
					return p.ACLBound
				}
				return p.DepBound
			},
		}},
	}

	res := &AlbumResult{Params: p}
	for _, c := range configs {
		cfg := c.cfg
		cfg.Strategy = core.StrategyAbort
		cfg.Seed = p.Seed
		col, err := NewColumn(cfg)
		if err != nil {
			return nil, err
		}
		col.SeedObjects(w.Keys())
		if err := col.WarmCache(ctx, w.Keys()); err != nil {
			col.Close()
			return nil, err
		}
		warm := p.Drive
		warm.Duration = p.Warmup
		if err := col.Run(ctx, warm, w.UpdateGen(), w.ReadGen()); err != nil {
			col.Close()
			return nil, err
		}
		meas := p.Drive
		meas.Duration = p.MeasureFor
		m, err := col.Measure(func() error { return col.Run(ctx, meas, w.UpdateGen(), w.ReadGen()) })
		col.Close()
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AlbumRow{
			Config:        c.name,
			Inconsistency: m.InconsistencyRatio(),
			Detection:     m.DetectionRatio(),
			HitRatio:      m.HitRatio(),
			M:             m,
		})
	}
	return res, nil
}

// Table renders the comparison.
func (r *AlbumResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§VII — web-album workload (picture dep bound %d)\n", r.Params.DepBound)
	fmt.Fprintf(&b, "%14s %18s %14s %10s\n", "config", "inconsistency[%]", "detection[%]", "hit-ratio")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%14s %18.1f %14.1f %10.3f\n",
			row.Config, row.Inconsistency, row.Detection, row.HitRatio)
	}
	return b.String()
}

// Row returns the named configuration's row.
func (r *AlbumResult) Row(name string) (AlbumRow, bool) {
	for _, row := range r.Rows {
		if row.Config == name {
			return row, true
		}
	}
	return AlbumRow{}, false
}

// MergeAblationParams parameterizes the LRU-policy ablation: the Fig. 5
// drift workload run under both pruning policies.
type MergeAblationParams struct {
	Drift DriftParams
}

// DefaultMergeAblationParams uses a faster drift than Fig. 5 so the
// positional policy's failure to converge shows within a short run.
func DefaultMergeAblationParams() MergeAblationParams {
	p := DefaultDriftParams()
	p.ShiftEvery = 60 * time.Second
	p.Duration = 400 * time.Second
	return MergeAblationParams{Drift: p}
}

// QuickMergeAblationParams is a scaled-down variant for tests.
func QuickMergeAblationParams() MergeAblationParams {
	return MergeAblationParams{Drift: QuickDriftParams()}
}

// MergeAblationRow is one policy's outcome.
type MergeAblationRow struct {
	Policy string
	// MeanInconsistency is the committed-inconsistency ratio averaged
	// over the whole run.
	MeanInconsistency float64
}

// MergeAblationResult compares version-recency LRU against positional
// inheritance.
type MergeAblationResult struct {
	Rows []MergeAblationRow
}

// RunMergeAblation runs the drift workload under both policies.
func RunMergeAblation(ctx context.Context, p MergeAblationParams) (*MergeAblationResult, error) {
	res := &MergeAblationResult{}
	for _, pol := range []struct {
		name   string
		policy db.MergePolicy
	}{
		{"recency-lru", db.MergeRecency},
		{"positional", db.MergePositional},
	} {
		dp := p.Drift
		r, err := runDriftWithPolicy(ctx, dp, pol.policy)
		if err != nil {
			return nil, err
		}
		var committed, inconsistent int
		for i := 0; i < r.Series.Buckets(); i++ {
			committed += r.Series.Count(i, LabelConsistent) + r.Series.Count(i, LabelInconsistent)
			inconsistent += r.Series.Count(i, LabelInconsistent)
		}
		mean := 0.0
		if committed > 0 {
			mean = 100 * float64(inconsistent) / float64(committed)
		}
		res.Rows = append(res.Rows, MergeAblationRow{Policy: pol.name, MeanInconsistency: mean})
	}
	return res, nil
}

// runDriftWithPolicy is RunDrift with a configurable merge policy.
func runDriftWithPolicy(ctx context.Context, p DriftParams, policy db.MergePolicy) (*DriftResult, error) {
	col, err := NewColumn(ColumnConfig{
		DepBound: p.DepBound,
		Strategy: core.StrategyAbort,
		Seed:     p.Seed,
		DepMerge: policy,
	})
	if err != nil {
		return nil, err
	}
	defer col.Close()

	series := stats.NewTimeSeries(col.Clk.Now(), p.Bucket)
	col.OnVerdict(func(v Verdicted) { series.Add(v.At, v.Label()) })
	gen := &workload.PerfectClusters{Objects: p.Objects, ClusterSize: p.ClusterSize, TxnSize: p.TxnSize}
	col.SeedObjects(workload.AllObjectKeys(p.Objects))
	if err := col.WarmCache(ctx, workload.AllObjectKeys(p.Objects)); err != nil {
		return nil, err
	}
	res := &DriftResult{Params: p, Series: series}
	var scheduleShift func()
	scheduleShift = func() {
		gen.Advance()
		res.Shifts = append(res.Shifts, int(col.Clk.Since(series.Origin())/p.Bucket))
		col.Clk.AfterFunc(p.ShiftEvery, scheduleShift)
	}
	col.Clk.AfterFunc(p.ShiftEvery, scheduleShift)
	drive := p.Drive
	drive.Duration = p.Duration
	if err := col.Run(ctx, drive, gen, gen); err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the ablation.
func (r *MergeAblationResult) Table() string {
	var b strings.Builder
	b.WriteString("Ablation — dependency-list pruning policy under cluster drift\n")
	fmt.Fprintf(&b, "%14s %24s\n", "policy", "mean inconsistency[%]")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%14s %24.2f\n", row.Policy, row.MeanInconsistency)
	}
	return b.String()
}

// DropSweepParams parameterizes the invalidation-loss sensitivity
// ablation: the paper fixes the drop rate at 20%; this sweeps it.
type DropSweepParams struct {
	Objects     int
	ClusterSize int
	TxnSize     int
	DepBound    int
	DropRates   []float64
	Warmup      time.Duration
	MeasureFor  time.Duration
	Drive       Drive
	Seed        int64
}

// DefaultDropSweepParams sweeps loss from a perfect channel to near-total
// loss on the perfectly clustered workload.
func DefaultDropSweepParams() DropSweepParams {
	return DropSweepParams{
		Objects:     2000,
		ClusterSize: 5,
		TxnSize:     5,
		DepBound:    5,
		DropRates:   []float64{0.001, 0.05, 0.1, 0.2, 0.4, 0.8},
		Warmup:      10 * time.Second,
		MeasureFor:  40 * time.Second,
		Drive:       Drive{UpdateRate: 100, ReadRate: 500},
		Seed:        1,
	}
}

// QuickDropSweepParams is a scaled-down variant for tests.
func QuickDropSweepParams() DropSweepParams {
	p := DefaultDropSweepParams()
	p.Objects = 500
	p.DropRates = []float64{0.001, 0.8}
	p.Warmup = 5 * time.Second
	p.MeasureFor = 15 * time.Second
	return p
}

// DropSweepPoint is one drop-rate's outcome: how much staleness the
// channel creates (exposure, measured at k=0) and how T-Cache holds up
// (with dependency lists).
type DropSweepPoint struct {
	DropRate float64
	// Exposure is the committed-inconsistency ratio of a plain cache
	// (k=0) at this loss rate.
	Exposure float64
	// Inconsistency and Aborted are T-Cache's outcome shares (k>0,
	// ABORT strategy).
	Inconsistency float64
	Aborted       float64
}

// DropSweepResult is the loss-sensitivity ablation.
type DropSweepResult struct {
	Params DropSweepParams
	Points []DropSweepPoint
}

// RunDropSweep measures exposure and T-Cache behaviour per drop rate.
func RunDropSweep(ctx context.Context, p DropSweepParams) (*DropSweepResult, error) {
	res := &DropSweepResult{Params: p}
	run := func(rate float64, bound int) (Measurement, error) {
		cfg := ColumnConfig{DepBound: bound, Strategy: core.StrategyAbort, Seed: p.Seed, DropRate: rate}
		if rate == 0 {
			cfg.DropRate = 0.000001 // ColumnConfig treats 0 as "default"
		}
		col, err := NewColumn(cfg)
		if err != nil {
			return Measurement{}, err
		}
		defer col.Close()
		gen := &workload.PerfectClusters{Objects: p.Objects, ClusterSize: p.ClusterSize, TxnSize: p.TxnSize}
		col.SeedObjects(workload.AllObjectKeys(p.Objects))
		if err := col.WarmCache(ctx, workload.AllObjectKeys(p.Objects)); err != nil {
			return Measurement{}, err
		}
		w := p.Drive
		w.Duration = p.Warmup
		if err := col.Run(ctx, w, gen, gen); err != nil {
			return Measurement{}, err
		}
		meas := p.Drive
		meas.Duration = p.MeasureFor
		return col.Measure(func() error { return col.Run(ctx, meas, gen, gen) })
	}
	for _, rate := range p.DropRates {
		exposure, err := run(rate, 0)
		if err != nil {
			return nil, err
		}
		tc, err := run(rate, p.DepBound)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, DropSweepPoint{
			DropRate:      rate,
			Exposure:      exposure.InconsistencyRatio(),
			Inconsistency: tc.InconsistencyRatio(),
			Aborted:       tc.AbortedPct(),
		})
	}
	return res, nil
}

// Table renders the sweep.
func (r *DropSweepResult) Table() string {
	var b strings.Builder
	b.WriteString("Ablation — invalidation loss rate (perfectly clustered, k=5, ABORT)\n")
	fmt.Fprintf(&b, "%10s %14s %20s %12s\n", "drop", "exposure[%]", "tc-inconsist[%]", "aborted[%]")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%10.3f %14.1f %20.2f %12.1f\n",
			pt.DropRate, pt.Exposure, pt.Inconsistency, pt.Aborted)
	}
	return b.String()
}
