package experiment

import (
	"context"
	"time"

	"tcache/internal/clock"
	"tcache/internal/kv"
	"tcache/internal/workload"
)

// trial is the one way a figure gets numbers out of the simulation:
// build the column, seed the database and warm every edge over keys,
// drive the clients unmeasured for warmup, then measure one window.
// Every figure row is one trial.
type trial struct {
	cfg       ColumnConfig
	upd, read workload.Generator
	keys      []kv.Key
	// drive gives the client rates; its Duration is set per phase.
	drive  Drive
	warmup time.Duration // 0 skips the unmeasured phase
	window time.Duration
	// bucket > 0 also cuts the whole run, from time zero, into a series
	// of Measurements one bucket long (Figs. 4 and 5).
	bucket time.Duration
	// schedule, when set, plants workload changes on the run's clock
	// before the clients start.
	schedule func(*clock.Sim)
}

func (t trial) run(ctx context.Context) (Measurement, []Measurement, error) {
	col, err := NewColumn(t.cfg)
	if err != nil {
		return Measurement{}, nil, err
	}
	defer col.Close()
	var series []Measurement
	cut := func() {}
	if t.bucket > 0 {
		last := col.counters()
		cut = func() {
			now := col.counters()
			series = append(series, now.since(last))
			last = now
		}
		// Planted before any client, so at a bucket boundary the cut runs
		// first: a transaction at exactly k·bucket falls in bucket k.
		var tick func()
		tick = func() {
			cut()
			col.Clk.AfterFunc(t.bucket, tick)
		}
		col.Clk.AfterFunc(t.bucket, tick)
	}
	col.SeedObjects(t.keys)
	if err := col.WarmCache(ctx, t.keys); err != nil {
		return Measurement{}, nil, err
	}
	if t.schedule != nil {
		t.schedule(col.Clk)
	}
	d := t.drive
	if d.Duration = t.warmup; d.Duration > 0 {
		if err := col.Run(ctx, d, t.upd, t.read); err != nil {
			return Measurement{}, nil, err
		}
	}
	d.Duration = t.window
	m, err := col.Measure(func() error { return col.Run(ctx, d, t.upd, t.read) })
	// The series ends with the last bucket that saw a transaction.
	cut()
	for len(series) > 0 && series[len(series)-1].Mon.ReadOnly() == 0 {
		series = series[:len(series)-1]
	}
	return m, series, err
}
