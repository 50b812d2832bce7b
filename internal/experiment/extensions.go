package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/kv"
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

// AlbumRow is one configuration's outcome: M's InconsistencyRatio,
// DetectionRatio and HitRatio.
type AlbumRow struct {
	Config string
	M      Measurement
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
		t := trial{
			cfg: c.cfg, upd: w.UpdateGen(), read: w.ReadGen(), keys: w.Keys(),
			drive: p.Drive, warmup: p.Warmup, window: p.MeasureFor,
		}
		t.cfg.Strategy = core.StrategyAbort
		t.cfg.Seed = p.Seed
		m, _, err := t.run(ctx)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AlbumRow{Config: c.name, M: m})
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
			row.Config, row.M.InconsistencyRatio(), row.M.DetectionRatio(), row.M.HitRatio())
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

// DefaultMergeAblationParams is the LRU-policy ablation's setup: the
// Fig. 5 drift workload (run under both pruning policies) with a faster
// drift, so the positional policy's failure to converge shows within a
// short run. Its quick variant is QuickDriftParams.
func DefaultMergeAblationParams() DriftParams {
	p := DefaultDriftParams()
	p.ShiftEvery = 60 * time.Second
	p.Duration = 400 * time.Second
	return p
}

// MergeAblationRow is one policy's outcome: M.InconsistencyRatio() is
// the committed-inconsistency ratio over the whole run.
type MergeAblationRow struct {
	Policy string
	M      Measurement
}

// MergeAblationResult compares version-recency LRU against positional
// inheritance.
type MergeAblationResult struct {
	Rows []MergeAblationRow
}

// RunMergeAblation runs the drift workload under both policies.
func RunMergeAblation(ctx context.Context, p DriftParams) (*MergeAblationResult, error) {
	res := &MergeAblationResult{}
	for _, pol := range []struct {
		name   string
		policy db.MergePolicy
	}{
		{"recency-lru", db.MergeRecency},
		{"positional", db.MergePositional},
	} {
		m, _, err := driftTrial(p, pol.policy, new([]int)).run(ctx)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, MergeAblationRow{Policy: pol.name, M: m})
	}
	return res, nil
}

// Table renders the ablation.
func (r *MergeAblationResult) Table() string {
	var b strings.Builder
	b.WriteString("Ablation — dependency-list pruning policy under cluster drift\n")
	fmt.Fprintf(&b, "%14s %24s\n", "policy", "mean inconsistency[%]")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%14s %24.2f\n", row.Policy, row.M.InconsistencyRatio())
	}
	return b.String()
}

// DropSweepParams parameterizes the invalidation-loss sensitivity
// ablation: the paper fixes the drop rate at 20%; this sweeps it. Every
// rate must be above 0, which ColumnConfig.DropRate reads as "default".
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

// DefaultDropSweepParams sweeps loss from one invalidation in a thousand
// to four in five on the perfectly clustered workload.
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
// channel creates — Exposure.InconsistencyRatio(), a plain cache (k=0)
// at this loss rate — and how T-Cache holds up with dependency lists
// under ABORT: M's InconsistencyRatio and AbortedPct.
type DropSweepPoint struct {
	DropRate    float64
	Exposure, M Measurement
}

// DropSweepResult is the loss-sensitivity ablation.
type DropSweepResult struct {
	Params DropSweepParams
	Points []DropSweepPoint
}

// RunDropSweep measures exposure and T-Cache behaviour per drop rate.
func RunDropSweep(ctx context.Context, p DropSweepParams) (*DropSweepResult, error) {
	res := &DropSweepResult{Params: p}
	gen := &workload.PerfectClusters{Objects: p.Objects, ClusterSize: p.ClusterSize, TxnSize: p.TxnSize}
	t := trial{
		upd: gen, read: gen, keys: workload.AllObjectKeys(p.Objects),
		drive: p.Drive, warmup: p.Warmup, window: p.MeasureFor,
	}
	for _, rate := range p.DropRates {
		pt := DropSweepPoint{DropRate: rate}
		var err error
		t.cfg = ColumnConfig{DepBound: 0, Strategy: core.StrategyAbort, Seed: p.Seed, DropRate: rate}
		if pt.Exposure, _, err = t.run(ctx); err != nil {
			return nil, err
		}
		t.cfg.DepBound = p.DepBound
		if pt.M, _, err = t.run(ctx); err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
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
			pt.DropRate, pt.Exposure.InconsistencyRatio(), pt.M.InconsistencyRatio(), pt.M.AbortedPct())
	}
	return b.String()
}
