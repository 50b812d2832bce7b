package tcache_test

// Tests for commit install: a cache that commits through a
// CommitBackend keeps the items it wrote (no eviction, no refetch), one
// that commits through a bare UpdaterBackend still self-invalidates, and
// Tx.GetMulti / the retry prefetch batch an update's reads.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcache"
	"tcache/internal/kv"
)

// fullBackend is everything an in-tree backend offers a cache.
type fullBackend interface {
	tcache.Backend
	tcache.BatchBackend
	tcache.UpdaterBackend
	tcache.CommitBackend
}

// countingBackend forwards to a fullBackend, counting the reads that
// reach it.
type countingBackend struct {
	fullBackend
	single, batch atomic.Int64
}

func (b *countingBackend) ReadItem(ctx context.Context, key tcache.Key) (tcache.Item, bool, error) {
	b.single.Add(1)
	return b.fullBackend.ReadItem(ctx, key)
}

func (b *countingBackend) ReadItems(ctx context.Context, keys []tcache.Key) ([]tcache.Lookup, error) {
	b.batch.Add(1)
	return b.fullBackend.ReadItems(ctx, keys)
}

func (b *countingBackend) reads() int64 { return b.single.Load() + b.batch.Load() }

// bareUpdater is a third-party backend from before CommitBackend: it
// commits, but answers with the version alone.
type bareUpdater struct{ d *tcache.DB }

func (b bareUpdater) ReadItem(ctx context.Context, key tcache.Key) (tcache.Item, bool, error) {
	return b.d.ReadItem(ctx, key)
}

func (b bareUpdater) Subscribe(name string, sink func(tcache.Invalidation)) (func(), error) {
	return b.d.Subscribe(name, sink)
}

func (b bareUpdater) ValidatedUpdate(ctx context.Context, reads []tcache.ObservedRead, writes []tcache.KeyValue) (tcache.Version, error) {
	return b.d.ValidatedUpdate(ctx, reads, writes)
}

func groupKeys(group, n int) []tcache.Key {
	keys := make([]tcache.Key, n)
	for i := range keys {
		keys[i] = tcache.Key(fmt.Sprintf("g%d-k%d", group, i))
	}
	return keys
}

// bumpAll is the harness's read-modify-write: add one to every counter of
// keys (a missing key counts from zero), reading key by key.
func bumpAll(ctx context.Context, keys []tcache.Key) func(tx *tcache.Tx) error {
	return func(tx *tcache.Tx) error {
		for _, k := range keys {
			v, _, err := tx.Get(ctx, k)
			if err != nil {
				return err
			}
			var n uint64
			if len(v) == 8 {
				n = binary.BigEndian.Uint64(v)
			}
			if err := tx.Set(k, binary.BigEndian.AppendUint64(nil, n+1)); err != nil {
				return err
			}
		}
		return nil
	}
}

// installRig is one deployment a cache can commit through, with the
// counters the install tests read.
type installRig struct {
	db    *tcache.DB
	cache *tcache.Cache
	// backendReads counts the reads that left the cache for its backend.
	backendReads func() int64
}

func (r *installRig) dbReads() uint64 { return r.db.Core().Metrics().SingleGets }

func installRigs() map[string]func(t *testing.T, opts ...tcache.CacheOption) *installRig {
	openDB := func(t *testing.T) *tcache.DB {
		d := tcache.OpenDB(tcache.WithDepListBound(5))
		t.Cleanup(func() { d.Close() })
		return d
	}
	attach := func(t *testing.T, d *tcache.DB, b fullBackend, opts []tcache.CacheOption) *installRig {
		cb := &countingBackend{fullBackend: b}
		c, err := tcache.NewCache(cb, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return &installRig{db: d, cache: c, backendReads: cb.reads}
	}
	return map[string]func(t *testing.T, opts ...tcache.CacheOption) *installRig{
		"db": func(t *testing.T, opts ...tcache.CacheOption) *installRig {
			d := openDB(t)
			return attach(t, d, d, opts)
		},
		"remote": func(t *testing.T, opts ...tcache.CacheOption) *installRig {
			d := openDB(t)
			addr, stop, err := tcache.ServeDB(d, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(stop)
			remote, err := tcache.Dial(context.Background(), addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(remote.Close)
			return attach(t, d, remote, opts)
		},
		"cluster": func(t *testing.T, opts ...tcache.CacheOption) *installRig {
			r := newClusterRig(t, 3, tcache.WithClusterCacheOptions(opts...))
			return &installRig{db: r.db, cache: r.cc.Cache, backendReads: func() int64 {
				// DialCluster owns the backend; what left the client cache is
				// what reached an edge's cache.
				var n uint64
				for _, e := range r.edges {
					n += e.Cache().Metrics().Reads
				}
				return int64(n)
			}}
		},
	}
}

// TestUpdateInstallsCommittedItems: after Update returns, the writer's
// cache holds exactly the items the database stored — a ReadTxn over the
// written keys is all hits and reaches no backend, and a repeated
// read-modify-write reads nothing between its commits — whatever the
// backend tier, with and without a byte budget.
func TestUpdateInstallsCommittedItems(t *testing.T) {
	ctx := context.Background()
	for tier, build := range installRigs() {
		for _, maxBytes := range []int64{0, 1 << 20} {
			t.Run(fmt.Sprintf("%s/max%d", tier, maxBytes), func(t *testing.T) {
				r := build(t, tcache.WithMaxBytes(maxBytes))
				keys := groupKeys(0, 5)
				// Two of the five exist (and are read, so cached) before
				// the update; three are created by it.
				if err := r.db.Update(ctx, bumpAll(ctx, keys[:2])); err != nil {
					t.Fatal(err)
				}
				if err := r.cache.Update(ctx, bumpAll(ctx, keys)); err != nil {
					t.Fatal(err)
				}
				if got := r.cache.Stats().CommitInstalls; got != 5 {
					t.Fatalf("CommitInstalls = %d after one 5-key commit, want 5", got)
				}

				before, beforeBackend, beforeDB := r.cache.Stats(), r.backendReads(), r.dbReads()
				want := []uint64{2, 2, 1, 1, 1}
				if err := r.cache.ReadTxn(ctx, func(tx *tcache.ReadTx) error {
					vals, err := tx.GetMulti(ctx, keys...)
					for i, v := range vals {
						if got := binary.BigEndian.Uint64(v); got != want[i] {
							return fmt.Errorf("%q = %d, want %d", keys[i], got, want[i])
						}
					}
					return err
				}); err != nil {
					t.Fatal(err)
				}
				after := r.cache.Stats()
				if after.Hits-before.Hits != 5 || after.Misses != before.Misses {
					t.Fatalf("read of the written keys: %d hits, %d misses, want 5/0", after.Hits-before.Hits, after.Misses-before.Misses)
				}

				// Field for field what the database stored.
				for _, k := range keys {
					cached, ok, err := r.cache.Core().GetItem(ctx, k, kv.Version{})
					stored, sok, serr := r.db.Core().ReadItem(ctx, k)
					if err != nil || serr != nil || !ok || !sok {
						t.Fatalf("%q: cache %v/%v, db %v/%v", k, ok, err, sok, serr)
					}
					if !reflect.DeepEqual(cached, stored) {
						t.Errorf("%q installed as %v@%s %s, the database stored %v@%s %s",
							k, cached.Value, cached.Version, cached.Deps, stored.Value, stored.Version, stored.Deps)
					}
				}
				beforeDB += uint64(len(keys)) // the comparison's own reads

				// The next update of the same keys reads its whole
				// snapshot from the cache.
				if err := r.cache.Update(ctx, bumpAll(ctx, keys)); err != nil {
					t.Fatal(err)
				}
				if got := r.backendReads() - beforeBackend; got != 0 {
					t.Errorf("%d reads reached the backend after the commit installed its writes", got)
				}
				if got := r.dbReads() - beforeDB; got != 0 {
					t.Errorf("%d reads reached the database between two commits of the same keys", got)
				}
				if got := r.cache.Stats().CommitInstalls; got != 10 {
					t.Errorf("CommitInstalls = %d after two 5-key commits, want 10", got)
				}
			})
		}
	}
}

// TestClusterRMWOneCallPerCommit is the write path's attribution, from
// counters: a repeated 5-key read-modify-write through one ClusterCache
// costs one wire call per committed update — the commit — and the
// database serves no read between commits.
func TestClusterRMWOneCallPerCommit(t *testing.T) {
	ctx := context.Background()
	tel := tcache.NewTelemetry()
	r := newClusterRig(t, 3,
		// No health pings in the round-trip count.
		tcache.WithClusterHealth(time.Hour, time.Second),
		tcache.WithClusterCacheOptions(tcache.WithTelemetry(tel)))
	keys := groupKeys(0, 5)
	if err := r.cc.Update(ctx, bumpAll(ctx, keys)); err != nil {
		t.Fatal(err)
	}
	const commits = 20
	roundTrips := func() uint64 {
		h := tel.Snapshot().Histograms["client_round_trip_ns"]
		return h.Count()
	}
	calls, dbReads := roundTrips(), r.db.Core().Metrics().SingleGets
	installs := r.cc.Cache.Stats().CommitInstalls
	for i := 0; i < commits; i++ {
		if err := r.cc.Update(ctx, bumpAll(ctx, keys)); err != nil {
			t.Fatal(err)
		}
	}
	if got := roundTrips() - calls; got != commits {
		t.Errorf("%d wire calls for %d committed updates, want one each", got, commits)
	}
	if got := r.db.Core().Metrics().SingleGets - dbReads; got != 0 {
		t.Errorf("the database served %d reads between commits, want 0", got)
	}
	if got := r.cc.Cache.Stats().CommitInstalls - installs; got != 5*commits {
		t.Errorf("commit_installs rose by %d, want %d", got, 5*commits)
	}
}

// TestBareUpdaterBackendSelfInvalidates: behind a backend that answers a
// commit with the version alone there is nothing to install; the cache
// evicts its copies of the written keys, and the next read refetches
// them — read-your-writes the old way, with the stream dark.
func TestBareUpdaterBackendSelfInvalidates(t *testing.T) {
	ctx := context.Background()
	d := tcache.OpenDB(tcache.WithDepListBound(5))
	defer d.Close()
	c, err := tcache.NewCache(bareUpdater{d}, tcache.WithLossyLink(1.0, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := groupKeys(0, 3)
	for round := uint64(1); round <= 2; round++ {
		if err := c.Update(ctx, bumpAll(ctx, keys)); err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if _, ok := c.Core().Cached(k); ok {
				t.Fatalf("round %d: %q is still cached after a bare-version commit", round, k)
			}
			if v, err := c.Get(ctx, k); err != nil || binary.BigEndian.Uint64(v) != round {
				t.Fatalf("round %d: read after Update = %v, %v", round, v, err)
			}
		}
	}
	if st := c.Stats(); st.CommitInstalls != 0 || st.InvalidationsApplied != 3 {
		t.Fatalf("installs %d, invalidations applied %d, want 0 and 3 (second round's evictions)", st.CommitInstalls, st.InvalidationsApplied)
	}
}

// TestBlindWriteUnderAdmission: a commit's install goes through the
// admission doorkeeper like any fill — a first-sighted key may be
// declined, which costs a later miss and never an error.
func TestBlindWriteUnderAdmission(t *testing.T) {
	ctx := context.Background()
	d := tcache.OpenDB()
	defer d.Close()
	c, err := tcache.NewCache(d, tcache.WithMaxBytes(1<<20), tcache.WithAdmission(), tcache.WithCacheShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for round := 1; round <= 2; round++ {
		if err := c.Update(ctx, func(tx *tcache.Tx) error {
			return tx.Set("never-read", tcache.Value(fmt.Sprint(round)))
		}); err != nil {
			t.Fatalf("blind write %d = %v", round, err)
		}
	}
	st := c.Stats()
	if st.AdmissionRejects != 1 || st.CommitInstalls != 1 {
		t.Fatalf("admission rejects %d, installs %d, want 1 and 1 (declined, then admitted)", st.AdmissionRejects, st.CommitInstalls)
	}
	if v, err := c.Get(ctx, "never-read"); err != nil || string(v) != "2" {
		t.Fatalf("read after blind writes = %q, %v", v, err)
	}
	if got := c.Stats(); got.Hits != 1 || got.Misses != 0 {
		t.Fatalf("hits %d, misses %d, want the admitted install to serve the read", got.Hits, got.Misses)
	}
}

// TestTxGetMultiBatchesReads: a cold GetMulti inside Update is one batch
// request to the backend, repeats and buffered writes are served by the
// transaction itself, and after a validation conflict the retry fetches
// the failed attempt's read set in one request instead of key by key.
func TestTxGetMultiBatchesReads(t *testing.T) {
	ctx := context.Background()
	d := tcache.OpenDB(tcache.WithDepListBound(5))
	defer d.Close()
	cb := &countingBackend{fullBackend: d}
	c, err := tcache.NewCache(cb)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := groupKeys(0, 5)
	if err := d.Update(ctx, bumpAll(ctx, keys)); err != nil {
		t.Fatal(err)
	}

	t.Run("cold", func(t *testing.T) {
		if err := c.Update(ctx, func(tx *tcache.Tx) error {
			if err := tx.Set(keys[4], tcache.Value("mine")); err != nil {
				return err
			}
			vals, err := tx.GetMulti(ctx, append(keys, keys[0], "absent")...)
			if err != nil {
				return err
			}
			if len(vals) != 7 || string(vals[4]) != "mine" || vals[6] != nil || &vals[5][0] != &vals[0][0] {
				return fmt.Errorf("GetMulti = %v", vals)
			}
			again, err := tx.GetMulti(ctx, keys...)
			if err != nil || &again[1][0] != &vals[1][0] {
				return fmt.Errorf("repeat GetMulti = %v, %v", again, err)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if cb.batch.Load() != 1 || cb.single.Load() != 0 {
			t.Fatalf("a cold 5-key GetMulti cost %d batch and %d single backend reads, want 1 and 0", cb.batch.Load(), cb.single.Load())
		}
	})

	t.Run("retry", func(t *testing.T) {
		group := groupKeys(1, 5)
		if err := d.Update(ctx, bumpAll(ctx, group)); err != nil {
			t.Fatal(err)
		}
		cb.batch.Store(0)
		cb.single.Store(0)
		attempts := 0
		if err := c.Update(ctx, func(tx *tcache.Tx) error {
			if attempts++; attempts == 1 {
				// Read key by key, then lose the race: another writer
				// rewrites the whole group (the in-process stream evicts
				// all five here) before this attempt commits.
				if err := bumpAll(ctx, group)(tx); err != nil {
					return err
				}
				return d.Update(ctx, bumpAll(ctx, group))
			}
			return bumpAll(ctx, group)(tx)
		}); err != nil {
			t.Fatal(err)
		}
		if attempts != 2 {
			t.Fatalf("closure ran %d times, want 2", attempts)
		}
		if cb.single.Load() != 5 || cb.batch.Load() != 1 {
			t.Fatalf("%d single and %d batch backend reads, want 5 (first attempt, key by key) and 1 (the retry's whole read set)",
				cb.single.Load(), cb.batch.Load())
		}
		if v, _, _ := d.Get(ctx, group[0]); binary.BigEndian.Uint64(v) != 3 {
			t.Fatalf("counter = %d, want 3 (seed, the racing writer, the retry)", binary.BigEndian.Uint64(v))
		}
	})

	t.Run("interactive", func(t *testing.T) {
		if err := d.Update(ctx, func(tx *tcache.Tx) error {
			vals, err := tx.GetMulti(ctx, keys[0], "absent")
			if err != nil || len(vals[0]) != 8 || vals[1] != nil {
				return fmt.Errorf("DB GetMulti = %v, %v", vals, err)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestClusterInstallHammer drives N writers through one ClusterCache
// while its invalidation stream drops a fifth of its messages, with
// readers on the writers' cache and on a second client. Counters of a
// group move in lockstep, so: no acknowledged increment may be lost, and
// no committed read transaction on the writers' cache may see two
// counters of one group differ. The seed reproduces the key choices.
func TestClusterInstallHammer(t *testing.T) {
	seed := time.Now().UnixNano()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	r := newClusterRig(t, 3, tcache.WithClusterCacheOptions(tcache.WithLossyLink(0.2, 0, time.Millisecond, seed)))
	// The second client shares the fleet and hears every invalidation.
	addrs := make([]string, len(r.edges))
	for i, e := range r.edges {
		addrs[i] = e.Addr()
	}
	other, err := tcache.DialCluster(ctx, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()

	const (
		groups  = 6
		writers = 4
		readers = 2
		perW    = 40
	)
	groupOf := make([][]tcache.Key, groups)
	for g := range groupOf {
		groupOf[g] = groupKeys(g, 5)
		if err := r.db.Update(ctx, bumpAll(ctx, groupOf[g])); err != nil {
			t.Fatal(err)
		}
	}

	var (
		acked   atomic.Uint64
		torn    atomic.Uint64
		stop    = make(chan struct{})
		writeWG sync.WaitGroup
		readWG  sync.WaitGroup
		errc    = make(chan error, writers+2*readers)
	)
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(rng *rand.Rand) {
			defer writeWG.Done()
			for i := 0; i < perW; i++ {
				if err := r.cc.Update(ctx, bumpAll(ctx, groupOf[rng.Intn(groups)])); err != nil {
					errc <- fmt.Errorf("update: %w", err)
					return
				}
				acked.Add(1)
			}
		}(rand.New(rand.NewSource(seed + int64(w))))
	}
	// readLoop reads whole groups in committed read transactions until
	// stop, counting on torn the ones that saw unequal counters.
	readLoop := func(c *tcache.ClusterCache, rng *rand.Rand, torn *atomic.Uint64) {
		defer readWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var vals []tcache.Value
			err := c.ReadTxn(ctx, func(tx *tcache.ReadTx) error {
				var err error
				vals, err = tx.GetMulti(ctx, groupOf[rng.Intn(groups)]...)
				return err
			})
			if errors.Is(err, tcache.ErrTxnAborted) {
				continue
			}
			if err != nil {
				errc <- fmt.Errorf("read txn: %w", err)
				return
			}
			for _, v := range vals[1:] {
				if binary.BigEndian.Uint64(v) != binary.BigEndian.Uint64(vals[0]) {
					torn.Add(1)
					break
				}
			}
		}
	}
	var tornElsewhere atomic.Uint64
	for i := 0; i < readers; i++ {
		readWG.Add(2)
		go readLoop(r.cc, rand.New(rand.NewSource(seed+100+int64(i))), &torn)
		go readLoop(other, rand.New(rand.NewSource(seed+200+int64(i))), &tornElsewhere)
	}
	writeWG.Wait()
	close(stop)
	readWG.Wait()
	select {
	case err := <-errc:
		t.Fatalf("seed %d: %v", seed, err)
	default:
	}

	var sum uint64
	for g, keys := range groupOf {
		first, _, _ := r.db.Get(ctx, keys[0])
		for _, k := range keys {
			v, _, _ := r.db.Get(ctx, k)
			if binary.BigEndian.Uint64(v) != binary.BigEndian.Uint64(first) {
				t.Fatalf("seed %d: group %d differs at the database", seed, g)
			}
			sum += binary.BigEndian.Uint64(v)
		}
	}
	if want := 5 * (acked.Load() + groups); sum != want {
		t.Fatalf("seed %d: counters sum to %d, want 5 × (%d acked + %d seeded) = %d", seed, sum, acked.Load(), groups, want)
	}
	if n := torn.Load(); n != 0 {
		t.Fatalf("seed %d: %d committed read transactions on the writers' cache saw unequal counters", seed, n)
	}
	st := r.cc.Cache.Stats()
	if st.CommitInstalls == 0 || st.CommitInstalls > 5*acked.Load() {
		t.Fatalf("seed %d: commit_installs = %d for %d acked commits", seed, st.CommitInstalls, acked.Load())
	}
	t.Logf("seed %d: %d commits, %d installs, %d stale stream echoes, %d torn reads on the second client",
		seed, acked.Load(), st.CommitInstalls, st.InvalidationsStale, tornElsewhere.Load())
}
