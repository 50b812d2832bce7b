package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tcache/internal/chaos"
	"tcache/internal/clock"
	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/kv"
	"tcache/internal/monitor"
)

// rig wires one database column to one T-Cache through a lossy
// asynchronous invalidation channel, with a consistency monitor attached
// to both — the exact topology of the paper's Fig. 2.
type rig struct {
	clk   *clock.Sim
	db    *db.DB
	cache *core.Cache
	mon   *monitor.Monitor
	rng   *rand.Rand
}

type rigConfig struct {
	depBound int
	strategy core.Strategy
	dropRate float64
	delay    time.Duration
	jitter   time.Duration
	seed     int64
}

func newRig(t *testing.T, cfg rigConfig) *rig {
	t.Helper()
	clk := clock.NewSimAtZero()
	d := db.Open(db.Config{DepBound: cfg.depBound})
	t.Cleanup(func() { d.Close() })
	c, err := core.New(core.Config{Backend: d, Clock: clk, Strategy: cfg.strategy})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	mon := monitor.New()

	inj := chaos.New[db.Invalidation](clk, chaos.Config{
		DropRate:  cfg.dropRate,
		BaseDelay: cfg.delay,
		Jitter:    cfg.jitter,
		Seed:      cfg.seed + 1,
	})
	send := inj.Wrap(func(inv db.Invalidation) { c.Invalidate(inv.Key, inv.Version) })
	if _, err := d.Subscribe("cache", send); err != nil {
		t.Fatal(err)
	}

	d.OnCommit(func(rec db.CommitRecord) {
		reads := make([]monitor.Read, len(rec.Reads))
		for i, rr := range rec.Reads {
			reads[i] = monitor.Read{Key: rr.Key, Version: rr.Version}
		}
		mon.RecordUpdate(rec.Version, rec.Writes, reads)
	})
	c.OnComplete(func(comp core.Completion) {
		reads := make([]monitor.Read, len(comp.Reads))
		for i, r := range comp.Reads {
			reads[i] = monitor.Read{Key: r.Key, Version: r.Version}
		}
		mon.RecordReadOnly(reads, comp.Committed)
	})

	return &rig{
		clk:   clk,
		db:    d,
		cache: c,
		mon:   mon,
		rng:   rand.New(rand.NewSource(cfg.seed)),
	}
}

func (r *rig) seedObjects(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := kv.Key(fmt.Sprintf("obj%d", i))
		v := kv.Version{Counter: 1}
		r.db.Seed(k, kv.Value("seed"), v)
		r.mon.Seed(k, v)
	}
}

// updateTxn runs one read-then-write update transaction over keys.
func (r *rig) updateTxn(t *testing.T, keys []kv.Key) {
	t.Helper()
	var reads []kv.ObservedRead
	var writes []kv.KeyValue
	for _, k := range keys {
		item, found := r.db.Get(k)
		reads = append(reads, kv.ObservedRead{Key: k, Version: item.Version, Found: found})
	}
	for _, k := range keys {
		writes = append(writes, kv.KeyValue{Key: k, Value: kv.Value(fmt.Sprintf("v@%d", r.rng.Int()))})
	}
	if _, err := r.db.CommitUpdate(bgc, reads, writes); err != nil {
		t.Fatalf("update commit: %v", err)
	}
}

// readTxn runs one read-only cache transaction over keys; it reports
// whether it committed.
func (r *rig) readTxn(t *testing.T, id kv.TxnID, keys []kv.Key) bool {
	t.Helper()
	for i, k := range keys {
		_, err := r.cache.Read(bgc, id, k, i == len(keys)-1)
		switch {
		case err == nil:
		case errors.Is(err, core.ErrTxnAborted):
			return false
		default:
			t.Fatalf("read %s: %v", k, err)
		}
	}
	return true
}

// clusterKeys returns the keys of cluster c with clusters of size sz.
func clusterKeys(c, sz int) []kv.Key {
	out := make([]kv.Key, sz)
	for i := range out {
		out[i] = kv.Key(fmt.Sprintf("obj%d", c*sz+i))
	}
	return out
}

// runClustered interleaves update and read-only transactions over
// clustered keys on the virtual clock, with invalidations delayed and
// dropped. Reads sample with repetition inside one cluster, updates
// rewrite a whole cluster — the paper's perfectly clustered workload.
func runClustered(t *testing.T, r *rig, objects, clusterSize, updates, readTxns int) {
	t.Helper()
	r.seedObjects(t, objects)
	clusters := objects / clusterSize
	var nextID kv.TxnID

	for i := 0; i < updates; i++ {
		i := i
		r.clk.AfterFunc(time.Duration(i)*10*time.Millisecond, func() {
			r.updateTxn(t, clusterKeys(r.rng.Intn(clusters), clusterSize))
		})
	}
	for i := 0; i < readTxns; i++ {
		i := i
		r.clk.AfterFunc(time.Duration(i)*2*time.Millisecond, func() {
			nextID++
			cl := r.rng.Intn(clusters)
			keys := make([]kv.Key, 5)
			for j := range keys {
				keys[j] = kv.Key(fmt.Sprintf("obj%d", cl*clusterSize+r.rng.Intn(clusterSize)))
			}
			r.readTxn(t, nextID, keys)
		})
	}
	r.clk.Drain(1_000_000)
}

func TestTheorem1UnboundedDetectsAllInconsistencies(t *testing.T) {
	// Theorem 1: with unbounded cache and unbounded dependency lists,
	// T-Cache implements cache-serializability — every committed
	// read-only transaction must be consistent, no matter how unreliable
	// the invalidation channel is.
	for _, strategy := range []core.Strategy{core.StrategyAbort, core.StrategyEvict, core.StrategyRetry} {
		strategy := strategy
		t.Run(strategy.String(), func(t *testing.T) {
			r := newRig(t, rigConfig{
				depBound: kv.Unbounded,
				strategy: strategy,
				dropRate: 0.5, // extreme loss
				delay:    20 * time.Millisecond,
				jitter:   50 * time.Millisecond,
				seed:     int64(strategy),
			})
			runClustered(t, r, 100, 5, 400, 2000)

			s := r.mon.Stats()
			if s.CommittedInconsistent != 0 {
				t.Fatalf("Theorem 1 violated: %d inconsistent transactions committed (stats %+v)",
					s.CommittedInconsistent, s)
			}
			if s.Committed() == 0 {
				t.Fatal("no transactions committed; test has no power")
			}
			if r.cache.Metrics().Detected == 0 {
				t.Fatal("nothing was ever detected; losing 50% of invalidations should cause staleness")
			}
		})
	}
}

func TestBoundedDepListsMissInconsistenciesWhenUnclustered(t *testing.T) {
	// With a small bound and uniform (unclustered) access, dependency
	// lists cannot hold the relevant information, so some inconsistencies
	// must slip through — this is the phenomenon behind Fig. 3's low-α
	// regime and it proves the monitor can catch what T-Cache misses.
	r := newRig(t, rigConfig{
		depBound: 1,
		strategy: core.StrategyAbort,
		dropRate: 0.5,
		delay:    20 * time.Millisecond,
		jitter:   50 * time.Millisecond,
		seed:     7,
	})
	const objects = 60
	r.seedObjects(t, objects)
	var nextID kv.TxnID
	for i := 0; i < 500; i++ {
		i := i
		r.clk.AfterFunc(time.Duration(i)*10*time.Millisecond, func() {
			keys := make([]kv.Key, 0, 5)
			seen := map[int]bool{}
			for len(keys) < 5 {
				n := r.rng.Intn(objects)
				if !seen[n] {
					seen[n] = true
					keys = append(keys, kv.Key(fmt.Sprintf("obj%d", n)))
				}
			}
			r.updateTxn(t, keys)
		})
	}
	for i := 0; i < 2500; i++ {
		i := i
		r.clk.AfterFunc(time.Duration(i)*2*time.Millisecond, func() {
			nextID++
			keys := make([]kv.Key, 5)
			for j := range keys {
				keys[j] = kv.Key(fmt.Sprintf("obj%d", r.rng.Intn(objects)))
			}
			r.readTxn(t, nextID, keys)
		})
	}
	r.clk.Drain(1_000_000)

	s := r.mon.Stats()
	if s.CommittedInconsistent == 0 {
		t.Fatalf("expected undetected inconsistencies with bound 1 on uniform access; stats %+v", s)
	}
}

func TestPerfectClusteringNoDepBoundNeededBeyondClusterSize(t *testing.T) {
	// §III / §V-A3: with perfectly clustered access and dependency lists
	// as large as the cluster, detection converges to perfect.
	r := newRig(t, rigConfig{
		depBound: 5,
		strategy: core.StrategyAbort,
		dropRate: 0.3,
		delay:    20 * time.Millisecond,
		jitter:   40 * time.Millisecond,
		seed:     11,
	})
	runClustered(t, r, 100, 5, 400, 2000)
	s := r.mon.Stats()
	if s.CommittedInconsistent != 0 {
		t.Fatalf("perfectly clustered workload leaked %d inconsistencies (stats %+v)",
			s.CommittedInconsistent, s)
	}
	if s.Committed() == 0 || r.cache.Metrics().Detected == 0 {
		t.Fatalf("test has no power: %+v", s)
	}
}

func TestRetryImprovesCommitRateOverAbort(t *testing.T) {
	run := func(strategy core.Strategy) (committedConsistent, aborted uint64) {
		r := newRig(t, rigConfig{
			depBound: 5,
			strategy: strategy,
			dropRate: 0.3,
			delay:    20 * time.Millisecond,
			jitter:   40 * time.Millisecond,
			seed:     42, // identical workload for both strategies
		})
		runClustered(t, r, 100, 5, 400, 2000)
		s := r.mon.Stats()
		return s.CommittedConsistent, s.AbortedConsistent + s.AbortedInconsistent
	}
	abortOK, abortAborted := run(core.StrategyAbort)
	retryOK, retryAborted := run(core.StrategyRetry)
	if retryOK <= abortOK {
		t.Fatalf("RETRY commits (%d) not above ABORT commits (%d)", retryOK, abortOK)
	}
	if retryAborted >= abortAborted {
		t.Fatalf("RETRY aborts (%d) not below ABORT aborts (%d)", retryAborted, abortAborted)
	}
}

func TestInvalidationsKeepCacheFreshWithoutLoss(t *testing.T) {
	// With a reliable, instant invalidation channel and ABORT strategy,
	// transactions may still abort (invalidations race reads) but
	// committed inconsistencies should be rare to zero.
	r := newRig(t, rigConfig{
		depBound: 5,
		strategy: core.StrategyAbort,
		dropRate: 0,
		delay:    0,
		jitter:   0,
		seed:     3,
	})
	runClustered(t, r, 100, 5, 300, 1500)
	s := r.mon.Stats()
	if s.CommittedInconsistent != 0 {
		t.Fatalf("lossless instant invalidations still leaked inconsistencies: %+v", s)
	}
}
