package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"tcache"
	"tcache/internal/cluster"
	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/evict"
	"tcache/internal/kv"
	"tcache/internal/telemetry"
	"tcache/internal/transport"
	"tcache/internal/wal"
)

// Probes (P in README.md's layer table) time one layer's exported
// function from a single goroutine, on inputs taken from the workload's
// own data set, with nothing else running except the idle topology.
// They say what a call costs when nothing contends; the spans and
// counters say what it costs under the workload.

// prober times probe functions and keeps the first error any of them
// returned; once one has failed the rest are skipped and read 0.
type prober struct {
	quick bool
	err   error
}

// ns returns fn's cost in ns per call: the median of five batches, each
// sized to a fifth of the probe budget.
func (p *prober) ns(fn func() error) float64 {
	budget := 200 * time.Millisecond
	if p.quick {
		budget = 10 * time.Millisecond
	}
	batch := func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n && p.err == nil; i++ {
			p.err = fn()
		}
		return time.Since(t0)
	}
	n := 1
	for p.err == nil {
		if d := batch(n); d >= budget/20 || n >= 1<<24 {
			n = max(1, int(float64(n)*float64(budget/5)/float64(max(d, 1))))
			break
		}
		n *= 4
	}
	batches := make([]float64, 5)
	for b := range batches {
		batches[b] = float64(batch(n)) / float64(n)
	}
	if p.err != nil {
		return 0
	}
	return median(batches)
}

// mallocsPer returns process-wide heap allocations per call of fn.
func (p *prober) mallocsPer(n int, fn func() error) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n && p.err == nil; i++ {
		p.err = fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// probes runs the probes mapped to this workload (README.md says which
// end-to-end metric each one should move) on the traced topology, which
// is still up but idle.
func (s *sockWorkload) probes(ctx context.Context, o *options, res *result) error {
	p := &prober{quick: o.quick}
	var err error
	switch s.name {
	case "edge_hit":
		err = s.probeHitPath(ctx, p, res)
	case "edge_miss":
		if err = s.probeEvict(ctx, p, res); err == nil {
			err = s.probeReadPath(ctx, p, res)
		}
	default:
		err = s.probeWritePath(ctx, o, p, res)
	}
	if err == nil {
		err = p.err
	}
	if err != nil {
		return fmt.Errorf("%s probes: %w", s.name, err)
	}
	return nil
}

// memBackend is an in-process, non-durable DB holding the data set:
// the backend of the probes that must not touch a socket or a disk.
func (s *sockWorkload) memBackend() *tcache.DB {
	d := tcache.OpenDB()
	for i, k := range s.data.keys {
		d.Core().Seed(k, s.data.values[i], kv.Version{Counter: 1})
	}
	return d
}

// probeHitPath: what a warm 5-key read txn costs in core, what the
// public API adds, and what telemetry adds on top (ROADMAP 3a).
func (s *sockWorkload) probeHitPath(ctx context.Context, p *prober, res *result) error {
	d := s.memBackend()
	defer d.Close()
	keys := s.data.clusters[0]

	cc, err := core.New(core.Config{Backend: d.Core(), Strategy: core.StrategyRetry})
	if err != nil {
		return err
	}
	defer cc.Close()
	var id kv.TxnID
	coreTxn := func() error {
		id++
		for j, k := range keys {
			if _, err := cc.Read(ctx, id, k, j == len(keys)-1); err != nil {
				return err
			}
		}
		return nil
	}
	apiTxn := func(c *tcache.Cache) func() error {
		return func() error {
			return c.ReadTxn(ctx, func(tx *tcache.ReadTx) error {
				_, err := tx.GetMulti(ctx, keys...)
				return err
			})
		}
	}
	plain, err := tcache.NewCache(d)
	if err != nil {
		return err
	}
	defer plain.Close()
	withTel, err := tcache.NewCache(d, tcache.WithTelemetry(tcache.NewTelemetry()))
	if err != nil {
		return err
	}
	defer withTel.Close()
	// The first call of each fills its cache; ns's sizing batches run
	// before the timed ones, so every timed call is warm.
	coreNs := p.ns(coreTxn)
	plainNs := p.ns(apiTxn(plain))
	telNs := p.ns(apiTxn(withTel))

	var h telemetry.Histogram
	v := uint64(1)
	observeNs := p.ns(func() error { h.Observe(v); v += 37; return nil })

	res.put("core.warm_read_ns", "ns", coreNs/float64(len(keys)), 0)
	res.put("tcache.api_overhead_ns", "ns", plainNs-coreNs, 0)
	res.put("telemetry.hit_tax_ns", "ns", telNs-plainNs, 0)
	res.put("telemetry.observe_ns", "ns", observeNs, 0)
	return nil
}

// probeEvict: the ledger's per-call costs, and the exact hit ratio each
// policy would reach on this workload's key stream (ROADMAP item 4
// wants this before any policy is deleted).
func (s *sockWorkload) probeEvict(ctx context.Context, p *prober, res *result) error {
	// Touch and Add+Evict on a shard held at its budget.
	const entries = 4096
	const cost = 256
	sh := evict.NewShard(evict.LRU, entries*cost, false)
	handles := make([]evict.Handle, entries+1)
	for i := 0; i < entries; i++ {
		sh.Add(&handles[i], &handles[i], cost)
	}
	i := 0
	res.put("evict.touch_ns", "ns", p.ns(func() error { sh.Touch(&handles[i%entries]); i += 61; return nil }), 0)
	free := &handles[entries]
	res.put("evict.add_evict_ns", "ns", p.ns(func() error {
		sh.Add(free, free, cost)
		victim, _ := sh.Evict()
		free = victim.(*evict.Handle)
		return nil
	}), 0)

	d := s.memBackend()
	defer d.Close()
	replayTxns := len(s.closed.ops) / 2
	if p.quick {
		replayTxns /= 32
	}
	for _, v := range []struct {
		name      string
		policy    evict.Kind
		admission bool
	}{{"lru", evict.LRU, false}, {"clock", evict.Clock, false}, {"cost", evict.Cost, false}, {"lru_door", evict.LRU, true}} {
		c, err := core.New(core.Config{Backend: d.Core(), MaxBytes: s.clientMaxBytes, Policy: v.policy, Admission: v.admission, Shards: 1})
		if err != nil {
			return err
		}
		for _, op := range s.closed.ops[:replayTxns] {
			keys := s.data.clusters[op.cluster]
			if op.kind == opScan {
				keys = s.data.scans[op.cluster]
			}
			for _, k := range keys {
				if _, err := c.Get(ctx, k); err != nil {
					c.Close()
					return fmt.Errorf("evict replay: %w", err)
				}
			}
		}
		m := c.Metrics()
		c.Close()
		res.put("evict.replay_hit_ratio."+v.name, "ratio", m.HitRatio(), m.Hits+m.Misses)
	}
	return nil
}

// probeReadPath: ring lookup, one routed read against the direct read
// of the same edge-resident key, and the DB wire round trip against the
// same call in process.
func (s *sockWorkload) probeReadPath(ctx context.Context, p *prober, res *result) error {
	addrs := make([]string, len(s.topo.edges))
	for i, e := range s.topo.edges {
		addrs[i] = e.Addr()
	}
	ring, err := cluster.NewRing(addrs, 0)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	sample := make([]tcache.Key, 256)
	for i := range sample {
		sample[i] = s.data.keys[rng.Intn(len(s.data.keys))]
	}
	i := 0
	res.put("cluster.ring_lookup_ns", "ns", p.ns(func() error { ring.Lookup(sample[i%len(sample)]); i++; return nil }), 0)

	// One small key, resident at its owner edge after the first read.
	key := s.data.keys[0]
	owner, _ := ring.Lookup(key)
	direct, err := transport.DialDB(ctx, addrs[owner], 1)
	if err != nil {
		return err
	}
	defer direct.Close()
	routed := p.ns(func() error { _, _, err := s.topo.router.ReadItem(ctx, key); return err })
	unrouted := p.ns(func() error { _, _, err := direct.ReadItem(ctx, key); return err })
	res.put("cluster.route_overhead_us", "us", (routed-unrouted)/1e3, 0)

	dbc, err := transport.DialDB(ctx, s.topo.dbAddr, 1)
	if err != nil {
		return err
	}
	defer dbc.Close()
	pdb := s.topo.primary.Core()
	batch := s.data.clusters[0]
	wire := func() error { _, _, err := dbc.ReadItem(ctx, key); return err }
	wireNs := p.ns(wire)
	localNs := p.ns(func() error { _, _, err := pdb.ReadItem(ctx, key); return err })
	res.put("transport.rt_us", "us", wireNs/1e3, 0)
	res.put("transport.rt_overhead_us", "us", (wireNs-localNs)/1e3, 0)
	res.put("transport.batch5_rt_us", "us", p.ns(func() error { _, err := dbc.ReadItems(ctx, batch); return err })/1e3, 0)
	res.put("transport.allocs_per_rt", "count", p.mallocsPer(2000, wire), 2000)
	res.put("db.read_item_ns", "ns", localNs, 0)
	return nil
}

// updater is the optimistic write path every tier offers.
type updater interface {
	ReadItem(context.Context, kv.Key) (kv.Item, bool, error)
	ValidatedUpdate(context.Context, []kv.ObservedRead, []kv.KeyValue) (kv.Version, error)
}

// probeWritePath: where an update's time goes when nothing overlaps —
// the invalidation upcall, the in-memory commit, the log append with
// and without fsync, the wire commit, and what waiting for the standby
// adds to a durable commit.
func (s *sockWorkload) probeWritePath(ctx context.Context, o *options, p *prober, res *result) error {
	// core.Invalidate on resident entries: refill (untimed), then
	// invalidate every key once with a newer version (timed).
	mem := s.memBackend()
	defer mem.Close()
	cc, err := core.New(core.Config{Backend: mem.Core(), Strategy: core.StrategyRetry})
	if err != nil {
		return err
	}
	defer cc.Close()
	var rounds []float64
	for r := uint64(0); r < 5; r++ {
		for _, k := range s.data.keys {
			if _, err := cc.Get(ctx, k); err != nil {
				return fmt.Errorf("invalidate probe refill: %w", err)
			}
		}
		t0 := time.Now()
		for _, k := range s.data.keys {
			cc.Invalidate(k, kv.Version{Counter: 2 + r})
		}
		rounds = append(rounds, float64(time.Since(t0))/float64(len(s.data.keys)))
	}
	res.put("core.invalidate_ns", "ns", median(rounds), uint64(len(rounds)*len(s.data.keys)))

	// One 5-key read-modify-write commit, as the workload issues it. A
	// single writer cannot conflict, so any error is a real failure.
	keys := s.data.clusters[0]
	rmw := func(u updater) func() error {
		return func() error {
			reads := make([]kv.ObservedRead, len(keys))
			writes := make([]kv.KeyValue, len(keys))
			for j, k := range keys {
				it, ok, err := u.ReadItem(ctx, k)
				if err != nil {
					return err
				}
				reads[j] = kv.ObservedRead{Key: k, Version: it.Version, Found: ok}
				writes[j] = kv.KeyValue{Key: k, Value: it.Value}
			}
			_, err := u.ValidatedUpdate(ctx, reads, writes)
			return err
		}
	}
	res.put("db.update_us", "us", p.ns(rmw(mem.Core()))/1e3, 0)

	// The log alone.
	rec := wal.Record{Version: kv.Version{Counter: 1}}
	for j, k := range keys {
		rec.Writes = append(rec.Writes, wal.Entry{Key: k, Value: s.data.values[j]})
	}
	for _, v := range []struct {
		name string
		sync bool
	}{{"wal.append_sync_us", true}, {"wal.append_nosync_us", false}} {
		dir := workDir(o, "wal-probe")
		l, err := wal.Open(dir, wal.Options{Sync: v.sync})
		if err == nil {
			_, err = l.Replay(wal.ReplayHandler{})
		}
		if err != nil {
			return fmt.Errorf("wal probe: %w", err)
		}
		ns := p.ns(func() error {
			rec.Version.Counter++
			_, err := l.Append(rec)
			return err
		})
		err = l.Close()
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("wal probe close: %w", err)
		}
		res.put(v.name, "us", ns/1e3, 0)
	}

	// The same durable commit on the live primary (sync standby) and on
	// a primary with no standby: the difference is the ack wait.
	dbc, err := transport.DialDB(ctx, s.topo.dbAddr, 1)
	if err != nil {
		return err
	}
	defer dbc.Close()
	res.put("transport.update_rt_us", "us", p.ns(rmw(dbc))/1e3, 0)
	withStandby := p.ns(rmw(s.topo.primary.Core()))
	dir := workDir(o, "solo-probe")
	defer os.RemoveAll(dir)
	solo, err := db.Recover(db.Config{DepBound: 5, WALSync: true}, dir)
	if err != nil {
		return fmt.Errorf("solo primary: %w", err)
	}
	for j, k := range keys {
		if _, err := solo.ValidatedUpdate(ctx, nil, []kv.KeyValue{{Key: k, Value: s.data.values[j]}}); err != nil {
			_ = solo.Close()
			return fmt.Errorf("solo primary seed: %w", err)
		}
	}
	alone := p.ns(rmw(solo))
	if err := solo.Close(); err != nil {
		return fmt.Errorf("solo primary close: %w", err)
	}
	res.put("db.repl_ack_extra_us", "us", (withStandby-alone)/1e3, 0)
	return nil
}
