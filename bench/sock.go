package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tcache"
	"tcache/internal/core"
)

// sockWorkload is one of the three workloads that drive the loopback
// topology. They differ only in data set, cache budgets, op mix and
// which phases they run.
type sockWorkload struct {
	name     string
	counters bool // rmw_mix: values are 8-byte counters + seeded pad
	data     *dataset
	picker   *clusterPicker
	topo     *topology

	closed *stream // the closed-loop driver's ops
	// cursor is the next op of closed to run: it moves on through every
	// warm-up and timed phase of the run, so no two replay the same ops.
	cursor atomic.Uint64
	reps   int    // repetitions of set-up + timed phases in an untraced run
	warm   uint64 // closed-loop txns run before timing
	// warmUpdates is how many of them were acked updates on the current
	// topology: the counter-sum check has to include them.
	warmUpdates uint64
	// openRates are the open phase's arrival rates; sideRate is the
	// open-loop reader that runs beside rmw_mix's closed writer pool.
	openRates map[opKind]float64
	sideRate  float64
	scanShare float64

	clientMaxBytes, edgeMaxBytes int64
}

func newSockWorkload(name string, seed int64, quick bool) *sockWorkload {
	rng := rand.New(rand.NewSource(seed))
	s := &sockWorkload{name: name}
	objects := smallObjects
	kind := func(float64) opKind { return opRead }
	switch name {
	case "edge_hit":
		s.reps = 5
		s.data = newDataset(rng, objects, smallValueBytes, smallValueBytes, false)
	case "edge_miss":
		s.reps = 3
		objects = missObjects
		if quick {
			objects = missObjects / 10
		}
		s.data = newDataset(rng, objects, missMinBytes, missMaxBytes, true)
		s.clientMaxBytes = s.data.charged / missClientDiv
		s.edgeMaxBytes = s.data.charged / missEdgeDiv
		s.scanShare = missScanShare
		s.openRates = map[opKind]float64{opRead: rateEdgeMissRead}
		s.warm = warmTxnsMiss
		kind = func(u float64) opKind {
			if u < missScanShare {
				return opScan
			}
			return opRead
		}
	case "rmw_mix":
		s.reps = 3
		s.counters = true
		s.data = newDataset(rng, objects, smallValueBytes, smallValueBytes, false)
		for _, v := range s.data.values {
			binary.BigEndian.PutUint64(v, 0)
		}
		s.openRates = map[opKind]float64{opRead: rateRmwRead, opUpdate: rateRmwUpdate}
		s.sideRate = rateRmwRead
		s.warm = warmTxnsRmw
		kind = func(float64) opKind { return opUpdate }
	}
	if quick {
		s.warm /= 10
	}
	s.picker = newClusterPicker(rng, objects/clusterSize)
	s.closed = closedStream(rng, s.picker, 1<<19, kind)
	return s
}

// exec runs one op against the client cache and checks what came back.
func (s *sockWorkload) exec(w *worker, o op) error {
	switch o.kind {
	case opUpdate:
		return s.update(w, o.cluster)
	case opScan:
		return s.read(w, s.data.scans[o.cluster], int(o.cluster)*clusterSize)
	default:
		return s.read(w, s.data.clusters[o.cluster], int(o.cluster)*clusterSize)
	}
}

// read is the client's read transaction: one ReadTxn over keys, retried
// by the caller when the cache aborts it (the API's contract: "the
// caller may simply retry"), so the op fails only on an error, on
// running out of attempts, or on a wrong value.
func (s *sockWorkload) read(w *worker, keys []tcache.Key, first int) error {
	for attempt := 1; ; attempt++ {
		var vals []tcache.Value
		err := s.topo.client.ReadTxn(w.ctx, func(tx *tcache.ReadTx) error {
			var err error
			vals, err = tx.GetMulti(w.ctx, keys...)
			return err
		})
		if err == nil {
			return s.check(w, vals, first)
		}
		if !errors.Is(err, tcache.ErrTxnAborted) || attempt == readAttempts {
			return err
		}
		w.aborts++
		// The abort evicted the stale copy here, but the refetch goes to
		// an edge that may not have seen the invalidation yet: give it a
		// moment, longer each time.
		time.Sleep(time.Duration(attempt) * readRetryBackoff)
	}
}

// check compares a committed read txn's values with the seeded bytes.
// On rmw_mix the first 8 bytes are a counter that updates move in
// lockstep across a cluster, so unequal counters in one committed txn
// are an observed inconsistency — counted, not failed: T-Cache promises
// to catch most of them, not all.
func (s *sockWorkload) check(w *worker, vals []tcache.Value, first int) error {
	n := len(s.data.values)
	skip := 0
	if s.counters {
		skip = 8
	}
	for j, v := range vals {
		want := s.data.values[(first+j)%n]
		if len(v) != len(want) || !bytes.Equal(v[skip:], want[skip:]) {
			return fmt.Errorf("%s: key %q returned %d bytes that are not the seeded value", s.name, s.data.keys[(first+j)%n], len(v))
		}
	}
	if s.counters {
		c0 := binary.BigEndian.Uint64(vals[0])
		for _, v := range vals[1:] {
			if binary.BigEndian.Uint64(v) != c0 {
				w.inconsistent++
				break
			}
		}
	}
	return nil
}

// update increments the five counters of a cluster in one Update.
func (s *sockWorkload) update(w *worker, cluster uint32) error {
	keys := s.data.clusters[cluster]
	if w.scratch == nil {
		w.scratch = make([]byte, smallValueBytes)
	}
	err := s.topo.client.Update(w.ctx, func(tx *tcache.Tx) error {
		w.closureCalls++
		for _, k := range keys {
			v, ok, err := tx.Get(w.ctx, k)
			if err != nil {
				return err
			}
			if !ok || len(v) != smallValueBytes {
				return fmt.Errorf("rmw_mix: key %q missing or resized (%d bytes)", k, len(v))
			}
			copy(w.scratch, v)
			binary.BigEndian.PutUint64(w.scratch, binary.BigEndian.Uint64(v)+1)
			if err := tx.Set(k, w.scratch); err != nil { // Set clones
				return err
			}
		}
		return nil
	})
	if err != nil {
		// The commit frame may have been applied before the error.
		w.unknown++
	}
	return err
}

// setup builds the topology, seeds it and warms the caches; its wall
// time is the workload's setup_s sample.
func (s *sockWorkload) setup(ctx context.Context, dir string, tr *tracer) (time.Duration, error) {
	start := time.Now()
	topo, err := buildTopology(ctx, topoConfig{dir: dir, clientMaxBytes: s.clientMaxBytes, edgeMaxBytes: s.edgeMaxBytes, tracer: tr})
	if err != nil {
		return 0, err
	}
	s.topo = topo
	if err := topo.seed(ctx, s.data); err != nil {
		topo.close()
		return 0, err
	}
	// Warm-up: every cluster once (fills the unbounded caches
	// completely), then the workload's own op stream for the bounded
	// ones and the write path.
	g := &loadGen{ctx: ctx}
	every := &stream{ops: make([]op, len(s.data.clusters))}
	for c := range every.ops {
		every.ops[c] = op{cluster: uint32(c), kind: opRead}
	}
	n := runtime.GOMAXPROCS(0)
	p := g.closedLoop(n, every, new(atomic.Uint64), 0, uint64(len(every.ops)), s.exec)
	if p.firstErr == nil && s.warm > 0 {
		p = g.closedLoop(n, s.closed, &s.cursor, 0, s.warm, s.exec)
	}
	if p.firstErr != nil {
		topo.close()
		return 0, fmt.Errorf("warm-up: %w", p.firstErr)
	}
	s.warmUpdates = p.ok[opUpdate]
	return time.Since(start), nil
}

// pass is one pass over the workload's timed phases.
type pass struct {
	closed, side, open *phaseResult
	// delta covers every timed phase; openDelta the open phase alone,
	// where the load is the same on every commit (in the closed phase it
	// is whatever the system sustains).
	delta, openDelta counters
	edgeSum          core.MetricsSnapshot
	shareMax         float64
	heapMB           float64
	schedules        []*stream // the open-loop schedules this pass generated
}

// runPhases drives the timed phases on the already set-up topology.
func (s *sockWorkload) runPhases(ctx context.Context, seed int64, ph phases, tr *tracer) *pass {
	g := &loadGen{ctx: ctx, tr: tr}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed0be9))
	n := runtime.GOMAXPROCS(0)
	ps := &pass{}
	// Open-loop schedules are generated before anything is timed.
	var side, open *stream
	if s.sideRate > 0 {
		side = poissonStream(rng, s.picker, int64(ph.closed), map[opKind]float64{opRead: s.sideRate}, 0)
		ps.schedules = append(ps.schedules, side)
	}
	if ph.open > 0 && s.openRates != nil {
		open = poissonStream(rng, s.picker, int64(ph.open), s.openRates, s.scanShare)
		ps.schedules = append(ps.schedules, open)
	}

	before := s.topo.counters()
	if side != nil {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps.side = g.openLoop(side, ph.closed, s.exec)
		}()
		ps.closed = g.closedLoop(n*writersPerCPU, s.closed, &s.cursor, ph.closed, 0, s.exec)
		wg.Wait()
	} else {
		ps.closed = g.closedLoop(n, s.closed, &s.cursor, ph.closed, 0, s.exec)
	}
	mid := s.topo.counters()
	if open != nil {
		ps.open = g.openLoop(open, ph.open, s.exec)
	}
	after := s.topo.counters()
	ps.openDelta, _, _ = after.sub(mid)
	ps.delta, ps.edgeSum, ps.shareMax = after.sub(before)
	ps.heapMB = liveHeapMB()
	return ps
}

func (ps *pass) each(f func(*phaseResult)) {
	for _, p := range []*phaseResult{ps.closed, ps.side, ps.open} {
		if p != nil {
			f(p)
		}
	}
}

// verify is the workload's end-of-run output check.
func (s *sockWorkload) verify(ps *pass) error {
	var firstErr error
	ps.each(func(p *phaseResult) {
		if firstErr == nil {
			firstErr = p.firstErr
		}
	})
	if firstErr != nil {
		return firstErr
	}
	d := ps.delta.db
	switch s.name {
	case "edge_hit":
		// The bypass prediction: a pre-warmed unbounded client cache
		// serves everything, so nothing below it may move.
		if d.SingleGets != 0 || d.TxnsCommitted != 0 || d.WALRecords != 0 || ps.edgeSum.Reads != 0 {
			return fmt.Errorf("edge_hit reached below the client cache: db reads %d, commits %d, wal records %d, edge reads %d",
				d.SingleGets, d.TxnsCommitted, d.WALRecords, ps.edgeSum.Reads)
		}
	case "rmw_mix":
		var acked, unknown uint64
		ps.each(func(p *phaseResult) { acked += p.ok[opUpdate]; unknown += p.unknown })
		var sum uint64
		p := s.topo.primary.Core()
		for c, keys := range s.data.clusters {
			first, _ := p.Get(keys[0])
			for _, k := range keys {
				it, ok := p.Get(k)
				if !ok || len(it.Value) != smallValueBytes {
					return fmt.Errorf("rmw_mix: key %q lost", k)
				}
				if binary.BigEndian.Uint64(it.Value) != binary.BigEndian.Uint64(first.Value) {
					return fmt.Errorf("rmw_mix: cluster %d counters differ at the primary", c)
				}
				sum += binary.BigEndian.Uint64(it.Value)
			}
		}
		// Warm-up updates are part of the sum too.
		want := clusterSize * (acked + s.warmUpdates)
		if sum < want || sum > want+clusterSize*unknown {
			return fmt.Errorf("rmw_mix: counters sum to %d, want %d (+%d for %d unknown outcomes)", sum, want, clusterSize*unknown, unknown)
		}
		if lag := p.ReplStatusNow().Lag; lag != 0 {
			return fmt.Errorf("rmw_mix: replication lag %d after the run", lag)
		}
	}
	return s.topo.standbyMatches(s.data.keys)
}

func workDir(o *options, name string) string {
	return filepath.Join(o.workdir, fmt.Sprintf("%s-%d", name, time.Now().UnixNano()))
}
