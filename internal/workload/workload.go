// Package workload implements the transaction-generation side of the
// paper's evaluation (§IV, §V): the perfectly clustered and
// bounded-Pareto approximate-cluster synthetic workloads, uniform access,
// drifting and switching cluster dynamics, and random-walk transactions
// over graph topologies.
//
// A Generator produces the key set of one transaction; the same generator
// drives both update and read-only clients (the paper uses 5-object
// transactions for both).
//
// The built-in generators name each object with one string, so the
// database, the caches and the monitor that keep a key all share it
// instead of holding a copy per transaction. PerfectClusters,
// ParetoClusters, Uniform and AllObjectKeys hand out one package-wide
// table of ObjectKey strings, grown on demand; a GraphWalk builds its node→key table on its
// first Pick, Key or Keys, and its Graph's node count and Prefix must not
// change after. Tables are only read once built, so Pick is safe to call
// from several goroutines at once, each with its own rng.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"tcache/internal/graph"
	"tcache/internal/kv"
)

// Generator produces the access set of one transaction. Implementations
// must be deterministic given the rng stream. Generators are not required
// to be safe for concurrent use with a shared rng.
type Generator interface {
	// Pick returns the keys one transaction accesses, in access order.
	// The returned slice may contain repetitions (the paper's synthetic
	// workloads "choose 5 times with repetitions within this cluster").
	Pick(rng *rand.Rand) []kv.Key
}

// ObjectKey names synthetic object i; all generators in this package use
// it, so workloads over the same object count share a key space.
func ObjectKey(i int) kv.Key {
	return kv.Key(fmt.Sprintf("o%06d", i))
}

// objectKeys is the one table of ObjectKey strings: every generator over
// numbered objects picks from it and AllObjectKeys copies it, whatever the
// object count. It only grows: a longer request builds a longer copy under mu,
// keeping the strings already made, and publishes it for lock-free reads.
// Entry i is always ObjectKey(i), so no user of the table sees another's
// state in it.
var objectKeys struct {
	mu    sync.Mutex
	table atomic.Pointer[[]kv.Key]
}

// objectTable returns the shared strings of ObjectKey(0..n-1).
func objectTable(n int) []kv.Key {
	if t := objectKeys.table.Load(); t != nil && len(*t) >= n {
		return (*t)[:n:n]
	}
	objectKeys.mu.Lock()
	defer objectKeys.mu.Unlock()
	var t []kv.Key
	if p := objectKeys.table.Load(); p != nil {
		t = *p
	}
	if len(t) < n {
		grown := make([]kv.Key, n)
		copy(grown, t)
		for i := len(t); i < n; i++ {
			grown[i] = ObjectKey(i)
		}
		t = grown
		objectKeys.table.Store(&t)
	}
	return t[:n:n]
}

// PerfectClusters is the paper's first synthetic workload: objects
// 0..Objects-1 are divided into clusters of ClusterSize; each transaction
// picks one cluster uniformly and then TxnSize objects uniformly with
// repetition from inside it.
type PerfectClusters struct {
	Objects     int
	ClusterSize int
	TxnSize     int
	// Shift rotates cluster boundaries: cluster c covers objects
	// (c*ClusterSize+Shift ... ) mod Objects. DriftingClusters advances
	// it over time (Fig. 5).
	Shift int
}

var _ Generator = (*PerfectClusters)(nil)

// Pick implements Generator.
func (p *PerfectClusters) Pick(rng *rand.Rand) []kv.Key {
	keys := objectTable(p.Objects)
	clusters := p.Objects / p.ClusterSize
	c := rng.Intn(clusters)
	out := make([]kv.Key, p.TxnSize)
	for i := range out {
		o := (c*p.ClusterSize + rng.Intn(p.ClusterSize) + p.Shift) % p.Objects
		out[i] = keys[o]
	}
	return out
}

// Advance shifts the cluster boundaries by one object, wrapping at
// Objects (the Fig. 5 drift step: 0−4,5−9 → 1−5,6−10, …).
func (p *PerfectClusters) Advance() {
	p.Shift = (p.Shift + 1) % p.Objects
}

// ParetoClusters is the paper's approximate-cluster workload (§V-A1):
// each transaction picks a cluster uniformly at random, then picks each
// object by adding a bounded-Pareto offset to the cluster head, wrapping
// around the object range. Large Alpha keeps accesses inside the cluster;
// Alpha near zero approaches uniform access over all objects.
type ParetoClusters struct {
	Objects     int
	ClusterSize int
	TxnSize     int
	// Alpha is the Pareto shape parameter (Fig. 3 sweeps 1/32 … 4).
	Alpha float64
}

var _ Generator = (*ParetoClusters)(nil)

// Pick implements Generator.
func (p *ParetoClusters) Pick(rng *rand.Rand) []kv.Key {
	keys := objectTable(p.Objects)
	clusters := p.Objects / p.ClusterSize
	head := rng.Intn(clusters) * p.ClusterSize
	out := make([]kv.Key, p.TxnSize)
	for i := range out {
		off := int(BoundedPareto(rng, p.Alpha, 1, float64(p.Objects))) - 1
		out[i] = keys[(head+off)%p.Objects]
	}
	return out
}

// BoundedPareto draws from a Pareto distribution with shape alpha
// truncated to [lo, hi], by inverse-CDF sampling:
//
//	F(x) = (1 − (lo/x)^α) / (1 − (lo/hi)^α)
func BoundedPareto(rng *rand.Rand, alpha, lo, hi float64) float64 {
	if alpha <= 0 || lo <= 0 || hi <= lo {
		return lo
	}
	u := rng.Float64()
	ratio := math.Pow(lo/hi, alpha)
	x := lo / math.Pow(1-u*(1-ratio), 1/alpha)
	if x > hi {
		x = hi
	}
	if x < lo {
		x = lo
	}
	return x
}

// Uniform picks TxnSize distinct-ish objects uniformly at random over the
// whole object range (with repetition, matching the paper's unclustered
// phase of the Fig. 4 experiment).
type Uniform struct {
	Objects int
	TxnSize int
}

var _ Generator = (*Uniform)(nil)

// Pick implements Generator.
func (u *Uniform) Pick(rng *rand.Rand) []kv.Key {
	keys := objectTable(u.Objects)
	out := make([]kv.Key, u.TxnSize)
	for i := range out {
		out[i] = keys[rng.Intn(u.Objects)]
	}
	return out
}

// Switch delegates to Before until Flip is called, then to After. It
// implements the Fig. 4 cluster-formation experiment (uniform accesses
// that suddenly become perfectly clustered).
type Switch struct {
	Before, After Generator
	useAfter      bool
}

var _ Generator = (*Switch)(nil)

// Pick implements Generator.
func (s *Switch) Pick(rng *rand.Rand) []kv.Key {
	if s.useAfter {
		return s.After.Pick(rng)
	}
	return s.Before.Pick(rng)
}

// Flip switches the generator to its After phase.
func (s *Switch) Flip() { s.useAfter = true }

// Flipped reports whether Flip was called.
func (s *Switch) Flipped() bool { return s.useAfter }

// GraphWalk generates transactions by random walks over a topology
// (§V-B1): each transaction starts at a uniformly random node and takes
// Steps steps; the visited nodes are the accessed objects.
type GraphWalk struct {
	Graph *graph.Graph
	// Steps is the walk length (the paper takes 5 steps).
	Steps int
	// Prefix namespaces the keys, so two topologies can share a DB.
	Prefix string

	keysOnce sync.Once
	keys     []kv.Key
}

var _ Generator = (*GraphWalk)(nil)

// Pick implements Generator.
func (g *GraphWalk) Pick(rng *rand.Rand) []kv.Key {
	keys := g.table()
	start := rng.Intn(g.Graph.NumNodes())
	walk := g.Graph.RandomWalk(start, g.Steps, rng)
	out := make([]kv.Key, len(walk))
	for i, n := range walk {
		out[i] = keys[n]
	}
	return out
}

// Key names node n's object.
func (g *GraphWalk) Key(n int) kv.Key { return g.table()[n] }

// Keys returns every object key of the topology, for seeding.
func (g *GraphWalk) Keys() []kv.Key { return slices.Clone(g.table()) }

// table returns the node→key table, building it on first use.
func (g *GraphWalk) table() []kv.Key {
	g.keysOnce.Do(func() {
		g.keys = make([]kv.Key, g.Graph.NumNodes())
		for n := range g.keys {
			g.keys[n] = kv.Key(fmt.Sprintf("%sn%06d", g.Prefix, n))
		}
	})
	return g.keys
}

// AllObjectKeys returns ObjectKey(0..n-1), for seeding synthetic
// workloads: a fresh slice over the strings the generators pick.
func AllObjectKeys(n int) []kv.Key { return slices.Clone(objectTable(n)) }
