// Package experiment wires the full system of the paper's Fig. 2 — a
// database column fronted by one or more edge T-Caches, each behind its
// own unreliable asynchronous invalidation channel and with its own
// read-only clients and consistency monitor, under one update stream —
// on the simulation clock (Column), runs it one way (trial), and lists
// one runner per figure of the paper's evaluation section (§V) and of
// this repo's extensions of it (Figures).
package experiment

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"tcache/internal/chaos"
	"tcache/internal/clock"
	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/kv"
	"tcache/internal/monitor"
	"tcache/internal/workload"
)

// ColumnConfig configures one simulated column (Fig. 2). Zero values get
// the paper's defaults from §IV.
type ColumnConfig struct {
	// Edges is the number of edge caches fronting the database (default
	// 1, the paper's single column). Every edge gets its own cache,
	// invalidation link, monitor, read client and randomness; the update
	// stream is shared.
	Edges int
	// DepBound is the dependency-list bound k (§IV uses up to 5).
	DepBound int
	// DepBoundFor optionally overrides DepBound per key (§VII).
	DepBoundFor func(kv.Key) int
	// DepMerge selects the list-pruning policy (MergeRecency default;
	// MergePositional for the ablation).
	DepMerge db.MergePolicy
	// Pins installs application-declared always-retained dependencies
	// (§VII): Pins[owner] lists owner's pinned dependency keys.
	Pins map[kv.Key][]kv.Key
	// Strategy is the inconsistency reaction (default ABORT).
	Strategy core.Strategy
	// TTL bounds cache-entry life span (0 = none); used by the Fig. 7d
	// baseline.
	TTL time.Duration
	// DropRate is each invalidation link's loss probability; 0 selects
	// §IV's 20%, so a lossless channel is not expressible.
	DropRate float64
	// InvalDelay and InvalJitter shape asynchronous invalidation
	// delivery (defaults 10ms + 40ms jitter).
	InvalDelay  time.Duration
	InvalJitter time.Duration
	// Seed drives all randomness in the column (default 1).
	Seed int64
}

func (c ColumnConfig) withDefaults() ColumnConfig {
	if c.Edges == 0 {
		c.Edges = 1
	}
	if c.Strategy == 0 {
		c.Strategy = core.StrategyAbort
	}
	if c.DropRate == 0 {
		c.DropRate = 0.2
	}
	if c.InvalDelay == 0 {
		c.InvalDelay = 10 * time.Millisecond
	}
	if c.InvalJitter == 0 {
		c.InvalJitter = 40 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Column is one simulated database column and its edge caches. All
// activity runs on the embedded simulation clock; nothing is concurrent,
// so runs are exactly reproducible for a given seed.
type Column struct {
	Clk *clock.Sim
	DB  *db.DB
	// Cache and Mon are edge 0's: the whole column when Edges is 1.
	Cache *core.Cache
	Mon   *monitor.Monitor

	born      time.Time // the clock's reading when the column was built
	edges     []*edge
	updateRNG *rand.Rand
}

// edge is one edge cache with everything that is private to it.
type edge struct {
	cache     *core.Cache
	mon       *monitor.Monitor
	link      *chaos.Injector[db.Invalidation]
	readRNG   *rand.Rand
	nextTxnID kv.TxnID
}

// NewColumn builds the Fig. 2 topology.
func NewColumn(cfg ColumnConfig) (*Column, error) {
	cfg = cfg.withDefaults()
	d := db.Open(db.Config{
		DepBound:    cfg.DepBound,
		DepBoundFor: cfg.DepBoundFor,
		DepMerge:    cfg.DepMerge,
	})
	for owner, deps := range cfg.Pins {
		d.Pin(owner, deps...)
	}
	return newColumnOn(d, cfg)
}

// newColumnOn attaches cfg.Edges edges to d, which it owns: on failure
// d and the caches built so far are closed.
func newColumnOn(d *db.DB, cfg ColumnConfig) (*Column, error) {
	clk := clock.NewSimAtZero()
	col := &Column{
		Clk:       clk,
		DB:        d,
		born:      clk.Now(),
		updateRNG: rand.New(rand.NewSource(cfg.Seed)),
	}
	for e := 0; e < cfg.Edges; e++ {
		if err := col.addEdge(cfg, e); err != nil {
			col.Close()
			return nil, err
		}
	}
	col.Cache, col.Mon = col.edges[0].cache, col.edges[0].mon
	// This hook and each edge's completion hook (addEdge) reuse one read
	// buffer: the monitor copies what it records, commit hooks run under
	// the commit lock, and a column runs on one goroutine.
	var reads []monitor.Read
	d.OnCommit(func(rec db.CommitRecord) {
		reads = reads[:0]
		for _, r := range rec.Reads {
			reads = append(reads, monitor.Read{Key: r.Key, Version: r.Version})
		}
		for _, ed := range col.edges {
			ed.mon.RecordUpdate(rec.Version, rec.Writes, reads)
		}
	})
	return col, nil
}

// addEdge builds edge e — cache, lossy link, monitor glue — on the
// column's database. Edge 0's seeds are the single column's; the others
// are spaced so no two streams coincide.
func (c *Column) addEdge(cfg ColumnConfig, e int) error {
	cache, err := core.New(core.Config{
		Backend:  c.DB,
		Clock:    c.Clk,
		Strategy: cfg.Strategy,
		TTL:      cfg.TTL,
	})
	if err != nil {
		return fmt.Errorf("experiment: edge %d cache: %w", e, err)
	}
	ed := &edge{
		cache:   cache,
		mon:     monitor.New(),
		readRNG: rand.New(rand.NewSource(cfg.Seed + 7919 + 1000*int64(e))),
		link: chaos.New[db.Invalidation](c.Clk, chaos.Config{
			DropRate:  cfg.DropRate,
			BaseDelay: cfg.InvalDelay,
			Jitter:    cfg.InvalJitter,
			Seed:      cfg.Seed + 104729*int64(e+1),
		}),
	}
	c.edges = append(c.edges, ed)
	if _, err := c.DB.Subscribe(fmt.Sprintf("edge-%d", e), ed.link.Wrap(func(inv db.Invalidation) {
		cache.Invalidate(inv.Key, inv.Version)
	})); err != nil {
		return fmt.Errorf("experiment: edge %d subscribe: %w", e, err)
	}
	var reads []monitor.Read
	cache.OnComplete(func(comp core.Completion) {
		reads = reads[:0]
		for _, r := range comp.Reads {
			reads = append(reads, monitor.Read{Key: r.Key, Version: r.Version})
		}
		// An aborted transaction is judged on its would-be read set: the
		// reads it returned plus the read the violation blocked. This is
		// what distinguishes a true detection from a spurious abort.
		if comp.Attempted != nil {
			reads = append(reads, monitor.Read{Key: comp.Attempted.Key, Version: comp.Attempted.Version})
		}
		ed.mon.RecordReadOnly(reads, comp.Committed)
	})
	return nil
}

// Close releases the column's resources.
func (c *Column) Close() {
	for _, ed := range c.edges {
		ed.cache.Close()
	}
	c.DB.Close()
}

// SeedObjects loads every key at version 1 into the database and
// registers it with every edge's monitor.
func (c *Column) SeedObjects(keys []kv.Key) {
	v := kv.Version{Counter: 1}
	for _, k := range keys {
		c.DB.Seed(k, kv.Value("seed:"+k), v)
		for _, ed := range c.edges {
			ed.mon.Seed(k, v)
		}
	}
}

// WarmCache touches every key once through each edge's cache so the
// measured phase starts from hot caches (the paper's steady state).
func (c *Column) WarmCache(ctx context.Context, keys []kv.Key) error {
	for _, ed := range c.edges {
		for _, k := range keys {
			if _, err := ed.cache.Get(ctx, k); err != nil {
				return fmt.Errorf("experiment: warm %q: %w", k, err)
			}
		}
	}
	return nil
}

// RunUpdateTxn executes one update transaction over gen's key set:
// read all objects, then write them all (§V-B1). The reads are
// uncounted lock-free peeks; CommitUpdate locks and validates them.
func (c *Column) RunUpdateTxn(gen workload.Generator) error {
	keys := dedup(gen.Pick(c.updateRNG))
	reads := make([]kv.ObservedRead, len(keys))
	writes := make([]kv.KeyValue, len(keys))
	var buf []byte // backs every value; CommitUpdate stores copies
	for i, k := range keys {
		item, found := c.DB.Get(k)
		reads[i] = kv.ObservedRead{Key: k, Version: item.Version, Found: found}
		n := len(buf)
		buf = strconv.AppendInt(append(buf, 'v'), c.updateRNG.Int63(), 10)
		writes[i] = kv.KeyValue{Key: k, Value: buf[n:len(buf):len(buf)]}
	}
	//lint:ignore ctxdiscipline the simulation has no caller to cancel it, and RunUpdateTxn's signature is fixed by its callers
	if _, err := c.DB.CommitUpdate(context.Background(), reads, writes); err != nil {
		return fmt.Errorf("experiment: update commit: %w", err)
	}
	return nil
}

// RunReadTxn executes one read-only transaction over gen's key set
// through edge 0's cache, reporting whether it committed.
func (c *Column) RunReadTxn(ctx context.Context, gen workload.Generator) (bool, error) {
	return c.edges[0].runReadTxn(ctx, gen)
}

func (ed *edge) runReadTxn(ctx context.Context, gen workload.Generator) (bool, error) {
	keys := gen.Pick(ed.readRNG)
	ed.nextTxnID++
	txn := ed.cache.Begin(ed.nextTxnID, time.Time{})
	for _, k := range keys {
		if _, err := txn.Read(ctx, k); err != nil {
			txn.Finish(false)
			if errors.Is(err, core.ErrTxnAborted) {
				return false, nil
			}
			return false, fmt.Errorf("experiment: read %q: %w", k, err)
		}
	}
	if err := txn.Finish(true); err != nil {
		return false, fmt.Errorf("experiment: commit: %w", err)
	}
	return true, nil
}

// Drive describes client load: update transactions at UpdateRate/s on
// the database and read-only transactions at ReadRate/s on every edge,
// for Duration of virtual time (§IV: 100 update/s and 500 read/s).
type Drive struct {
	UpdateRate float64
	ReadRate   float64
	Duration   time.Duration
	// Around, when set, runs each transaction Run schedules — update
	// reports which client scheduled it — and must call txn exactly once
	// and return its error: a harness wraps each transaction this way to
	// time it. Nil runs them bare.
	Around func(update bool, txn func() error) error
}

func (d Drive) withDefaults() Drive {
	if d.UpdateRate == 0 {
		d.UpdateRate = 100
	}
	if d.ReadRate == 0 {
		d.ReadRate = 500
	}
	if d.Duration == 0 {
		d.Duration = 60 * time.Second
	}
	return d
}

// Run schedules the client load on the virtual clock and executes it to
// completion. updGen and readGen generate the respective access sets. It
// may be called repeatedly to extend a run (state carries over).
func (c *Column) Run(ctx context.Context, d Drive, updGen, readGen workload.Generator) error {
	d = d.withDefaults()
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	updInterval := time.Duration(float64(time.Second) / d.UpdateRate)
	readInterval := time.Duration(float64(time.Second) / d.ReadRate)
	end := c.Clk.Now().Add(d.Duration)

	// One update client, then one read client per edge, in edge order.
	every := func(interval time.Duration, update bool, txn func() error) {
		if d.Around != nil {
			bare := txn
			txn = func() error { return d.Around(update, bare) }
		}
		var tick func()
		tick = func() {
			keep(txn())
			if next := c.Clk.Now().Add(interval); next.Before(end) {
				c.Clk.At(next, tick)
			}
		}
		c.Clk.AfterFunc(interval, tick)
	}
	every(updInterval, true, func() error { return c.RunUpdateTxn(updGen) })
	for _, ed := range c.edges {
		every(readInterval, false, func() error { _, err := ed.runReadTxn(ctx, readGen); return err })
	}
	c.Clk.Run(end)
	// Let in-flight invalidations drain so back-to-back Run calls do not
	// leak deliveries across measurement phases.
	c.Clk.RunFor(time.Second)
	return firstErr
}

// dedup removes repeated keys in place, keeping first-access order:
// update transactions must not read/write the same key twice. A
// transaction's handful of keys is searched by scanning.
func dedup(keys []kv.Key) []kv.Key {
	out := keys[:0]
	for _, k := range keys {
		if !slices.Contains(out, k) {
			out = append(out, k)
		}
	}
	return out
}
