package main

import (
	"context"
	"fmt"
	"time"

	"tcache/internal/core"
	"tcache/internal/experiment"
	"tcache/internal/monitor"
	"tcache/internal/workload"
)

// paper_sim is the paper's own experiment (Fig. 2 column, §V-B): a DB,
// one T-Cache, a 20 %-lossy delayed invalidation channel and the exact
// consistency monitor, all on the simulation clock in one goroutine.
// The topology is the data set and is the same for every seed (the
// paper's is a fixed snapshot); the seed drives the random walks, the
// written values and which invalidations are lost.

// simColumn is one warmed-up column ready to be measured.
type simColumn struct {
	col *experiment.Column
	gen *workload.GraphWalk
}

func newSimColumn(ctx context.Context, kind experiment.TopologyKind, bound int, strategy core.Strategy, seed int64, quick bool) (*simColumn, error) {
	tp := experiment.DefaultTopologyParams()
	warm := simWarmup
	if quick {
		tp, warm = experiment.QuickTopologyParams(), simWarmup/4
	}
	g, err := experiment.BuildTopology(kind, tp)
	if err != nil {
		return nil, err
	}
	gen := &workload.GraphWalk{Graph: g, Steps: simWalkSteps, Prefix: string(kind) + "-"}
	col, err := experiment.NewColumn(experiment.ColumnConfig{DepBound: bound, Strategy: strategy, Seed: seed})
	if err != nil {
		return nil, err
	}
	keys := gen.Keys()
	col.SeedObjects(keys)
	if err := col.WarmCache(ctx, keys); err != nil {
		col.Close()
		return nil, err
	}
	drive := experiment.Drive{UpdateRate: simUpdateRate, ReadRate: simReadRate, Duration: warm}
	if err := col.Run(ctx, drive, gen, gen); err != nil {
		col.Close()
		return nil, err
	}
	return &simColumn{col: col, gen: gen}, nil
}

// simRun is one measured window of one column.
type simRun struct {
	m        experiment.Measurement
	readNs   *hist
	updateNs *hist
	// rates holds, for every simulated second, the transactions it
	// contained divided by the wall time it took.
	rates    []float64
	txns     uint64
	failed   uint64
	firstErr error
}

// measure drives the column for window of simulated time. It is
// Column.Run's schedule — a fixed-interval update client and read
// client on the virtual clock — rebuilt from Column's exported
// RunReadTxn/RunUpdateTxn so that each transaction's wall time can be
// taken (Column.Run has no hook for that). buf, when set, receives one
// root span per transaction.
func (c *simColumn) measure(ctx context.Context, window time.Duration, tr *tracer, buf *spanBuf) *simRun {
	r := &simRun{readNs: newHist(), updateNs: newHist()}
	clk := c.col.Clk
	updEvery := time.Second / simUpdateRate
	readEvery := time.Second / simReadRate
	end := clk.Now().Add(window)
	keep := func(err error) {
		if err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = err
			}
		}
	}
	timed := func(h *hist, kind spanKind, fn func() error) {
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		h.record(int64(d))
		r.txns++
		if buf != nil {
			s := int64(t0.Sub(tr.epoch))
			buf.add(span{txn: r.txns, kind: kind, start: s, end: s + int64(d)})
		}
		keep(err)
	}
	var updTick, readTick, secTick func()
	updTick = func() {
		timed(r.updateNs, spanRootUpdate, func() error { return c.col.RunUpdateTxn(c.gen) })
		if next := clk.Now().Add(updEvery); next.Before(end) {
			clk.At(next, updTick)
		}
	}
	readTick = func() {
		timed(r.readNs, spanRootRead, func() error { _, err := c.col.RunReadTxn(ctx, c.gen); return err })
		if next := clk.Now().Add(readEvery); next.Before(end) {
			clk.At(next, readTick)
		}
	}
	lastWall, lastTxns := time.Now(), uint64(0)
	secTick = func() {
		now := time.Now()
		if d := now.Sub(lastWall).Seconds(); d > 0 {
			r.rates = append(r.rates, float64(r.txns-lastTxns)/d)
		}
		lastWall, lastTxns = now, r.txns
		if next := clk.Now().Add(time.Second); !next.After(end) {
			clk.At(next, secTick)
		}
	}
	r.m, _ = c.col.Measure(func() error {
		clk.AfterFunc(updEvery, updTick)
		clk.AfterFunc(readEvery, readTick)
		clk.AfterFunc(time.Second, secTick)
		clk.Run(end)
		// In-flight invalidations drain, as after Column.Run.
		clk.RunFor(time.Second)
		return nil
	})
	return r
}

func runPaperSim(ctx context.Context, o *options, res *result) error {
	if o.trace == 1 {
		return paperSimTraced(ctx, o, res)
	}
	window := time.Duration(o.seconds * simSecondsPerSecond * float64(time.Second))
	var abortCol, retryCol *simColumn
	closeCols := func() {
		if abortCol != nil {
			abortCol.col.Close()
		}
		if retryCol != nil {
			retryCol.col.Close()
		}
		abortCol, retryCol = nil, nil
	}
	defer closeCols()
	repeats := setupRepeats
	if o.quick {
		repeats = 1
	}
	var setups []float64
	for i := 0; i < repeats; i++ {
		closeCols()
		start := time.Now()
		var err error
		if abortCol, err = newSimColumn(ctx, experiment.TopologyAmazon, simDepBound, core.StrategyAbort, o.seed, o.quick); err != nil {
			return err
		}
		if retryCol, err = newSimColumn(ctx, experiment.TopologyAmazon, simDepBound, core.StrategyRetry, o.seed, o.quick); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// ABORT measures detection (the paper's "detects 43–70 %"); RETRY is
	// the production strategy and measures what still commits
	// inconsistent, the latency, and the backend load.
	ab := abortCol.measure(ctx, window, nil, nil)
	rt := retryCol.measure(ctx, window, nil, nil)
	heap := liveHeapMB()
	simChecks(res, ab, rt)
	res.Health.OpStreamHash = fmt.Sprintf("column-seed-%d", o.seed)

	rates := append(append([]float64(nil), ab.rates...), rt.rates...)
	committed := rt.m.Mon.Committed()
	res.put("setup_s", "s", median(setups), uint64(len(setups)))
	res.put("txn_per_s", "1/s", median(rates), uint64(len(rates)))
	res.put("read_p50_us", "us", rt.readNs.quantile(0.5)/1e3, rt.readNs.n)
	res.put("live_heap_mb", "MB", heap, 0)
	res.put("cache_served_ratio", "ratio", 1-ratio(rt.m.DB.SingleGets, rt.m.Cache.Reads), rt.m.Cache.Reads)
	res.put("consistent_ratio", "ratio", 1-ratio(rt.m.Mon.CommittedInconsistent, committed), committed)
	return nil
}

// simChecks counts the runs' transactions and applies paper_sim's
// output check: the ABORT run must still detect what the paper claims.
func simChecks(res *result, ab *simRun, runs ...*simRun) {
	for _, r := range append([]*simRun{ab}, runs...) {
		res.Attempted += r.txns
		res.Failed += r.failed
		if r.firstErr != nil {
			res.fail(r.firstErr)
		}
	}
	if d := ab.m.DetectionRatio(); d < simDetectFloorPct {
		res.fail(fmt.Errorf("paper_sim: ABORT detected %.1f %% of inconsistencies, below the %d %% floor", d, simDetectFloorPct))
	}
}

// paperSimTraced is the per-layer pass: the amazon ABORT and RETRY
// columns again (RETRY once untraced and once with root spans, for the
// tracing overhead), the k=0 consistency-unaware baseline, orkut, and
// the monitor probe. Each window is half the end-to-end one.
func paperSimTraced(ctx context.Context, o *options, res *result) error {
	window := time.Duration(o.seconds * simSecondsPerSecond / 2 * float64(time.Second))
	tr := newTracer()
	run := func(kind experiment.TopologyKind, bound int, strategy core.Strategy, buf *spanBuf, then func(*simColumn)) (*simRun, error) {
		c, err := newSimColumn(ctx, kind, bound, strategy, o.seed, o.quick)
		if err != nil {
			return nil, err
		}
		defer c.col.Close()
		r := c.measure(ctx, window, tr, buf)
		if then != nil {
			then(c)
		}
		return r, nil
	}
	ab, err := run(experiment.TopologyAmazon, simDepBound, core.StrategyAbort, nil, nil)
	if err != nil {
		return err
	}
	base, err := run(experiment.TopologyAmazon, simDepBound, core.StrategyRetry, nil, nil)
	if err != nil {
		return err
	}
	rt, err := run(experiment.TopologyAmazon, simDepBound, core.StrategyRetry, tr.newBuf(spanCap), func(c *simColumn) {
		probeMonitor(o, res, c)
	})
	if err != nil {
		return err
	}
	k0, err := run(experiment.TopologyAmazon, 0, core.StrategyAbort, nil, nil)
	if err != nil {
		return err
	}
	orkut, err := run(experiment.TopologyOrkut, simDepBound, core.StrategyAbort, nil, nil)
	if err != nil {
		return err
	}
	simChecks(res, ab, base, rt, k0, orkut)
	res.Health.OpStreamHash = fmt.Sprintf("column-seed-%d", o.seed)

	us := func(ns float64) float64 { return ns / 1e3 }
	m := rt.m
	res.put("trace_overhead_ratio", "ratio", median(base.rates)/median(rt.rates), uint64(len(rt.rates)))
	res.put("trace.root_spans", "count", float64(rt.txns), 0)
	res.put("experiment.detect_ratio", "%", ab.m.DetectionRatio(), ab.m.Mon.ReadOnly())
	res.put("experiment.aborted_pct", "%", ab.m.AbortedPct(), ab.m.Mon.ReadOnly())
	res.put("experiment.inconsistent_ratio", "%", m.InconsistencyRatio(), m.Mon.Committed())
	res.put("experiment.hit_ratio", "ratio", m.HitRatio(), m.Cache.Reads)
	res.put("experiment.inconsistent_ratio_k0", "%", k0.m.InconsistencyRatio(), k0.m.Mon.Committed())
	res.put("experiment.detect_ratio_orkut", "%", orkut.m.DetectionRatio(), orkut.m.Mon.ReadOnly())
	if b := k0.m.Mon.CommittedConsistent; b > 0 {
		// Same window on both sides, so the rate gain is the count gain.
		res.put("experiment.consistent_rate_gain_pct", "%", 100*(float64(m.Mon.CommittedConsistent)-float64(b))/float64(b), b)
	}
	res.put("tcache.read_txn_p99_us", "us", us(rt.readNs.p99()), rt.readNs.n)
	res.put("db.update_us", "us", us(rt.updateNs.quantile(0.5)), rt.updateNs.n)
	res.put("db.backend_reads_per_txn", "count", ratio(m.DB.SingleGets, m.Mon.Committed()), m.Mon.Committed())
	res.put("core.client_hit_ratio", "ratio", m.HitRatio(), m.Cache.Reads)
	res.put("core.detected_per_ktxn", "count", 1000*ratio(m.Cache.Detected, m.Cache.TxnsStarted), m.Cache.TxnsStarted)
	res.put("core.retries_per_ktxn", "count", 1000*ratio(m.Cache.Retries, m.Cache.TxnsStarted), m.Cache.TxnsStarted)
	res.put("core.abort_ratio", "ratio", ratio(m.Cache.TxnsAborted, m.Cache.TxnsStarted), m.Cache.TxnsStarted)
	invals := m.Cache.InvalidationsApplied + m.Cache.InvalidationsStale + m.Cache.InvalidationsNoop
	res.put("core.invalidations_stale_ratio", "ratio", ratio(m.Cache.InvalidationsStale, invals), invals)
	if o.traceOut != "" {
		return tr.dump(o.traceOut)
	}
	return nil
}

// probeMonitor times the monitor's classification on read sets the
// column's own cache completes: it runs a little more of the workload
// with a completion hook collecting them, then classifies each again.
func probeMonitor(o *options, res *result, c *simColumn) {
	var sets [][]monitor.Read
	collecting := true
	c.col.Cache.OnComplete(func(comp core.Completion) {
		if !collecting || len(sets) >= 4096 {
			return
		}
		reads := make([]monitor.Read, len(comp.Reads))
		for i, r := range comp.Reads {
			reads[i] = monitor.Read{Key: r.Key, Version: r.Version}
		}
		sets = append(sets, reads)
	})
	drive := experiment.Drive{UpdateRate: simUpdateRate, ReadRate: simReadRate, Duration: 10 * time.Second}
	_ = c.col.Run(context.Background(), drive, c.gen, c.gen) // errors already surfaced by the measured window
	collecting = false
	if len(sets) == 0 {
		return
	}
	i := 0
	ns := (&prober{quick: o.quick}).ns(func() error {
		c.col.Mon.ClassifyExact(sets[i%len(sets)])
		i++
		return nil
	})
	res.put("monitor.classify_us", "us", ns/1e3, uint64(len(sets)))
}
