package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"

	"tcache"
	"tcache/internal/workload"
)

// The op stream — which cluster each operation touches, what kind of
// operation it is, and (open loop) when it is due — is generated up
// front from the seed alone, so the system under test only ever sees
// inputs that are identical for every commit measured with that seed.

type opKind uint8

const (
	opRead   opKind = iota // one ReadTxn over a cluster's 5 keys
	opScan                 // one ReadTxn over scanKeys consecutive keys
	opUpdate               // one Update incrementing a cluster's 5 counters
	numOpKinds
)

type op struct {
	cluster uint32
	kind    opKind
}

// stream is a finite op sequence. Closed-loop phases consume it in
// order and wrap around; open-loop phases dispatch ops[i] at due[i]
// nanoseconds after the phase starts.
type stream struct {
	ops []op
	due []int64
}

// hashStreams folds the streams into one FNV hash, so two runs can
// prove they replayed the same inputs.
func hashStreams(ss ...*stream) uint64 {
	h := fnv.New64a()
	var b [13]byte
	for _, s := range ss {
		for i, o := range s.ops {
			binary.LittleEndian.PutUint32(b[0:], o.cluster)
			b[4] = byte(o.kind)
			var due int64
			if s.due != nil {
				due = s.due[i]
			}
			binary.LittleEndian.PutUint64(b[5:], uint64(due))
			h.Write(b[:]) // a hash.Hash never returns an error
		}
	}
	return h.Sum64()
}

// zipf draws ranks 0..n-1 with P(rank r) ∝ 1/(r+1)^theta, theta < 1
// (Gray et al., "Quickly generating billion-record synthetic
// databases" — the YCSB generator; math/rand's Zipf needs s > 1).
type zipf struct {
	n                  float64
	theta, alpha, zeta float64
	eta, half          float64
}

func newZipf(n int, theta float64) *zipf {
	var zetan float64
	for i := 1; i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	half := math.Pow(0.5, theta)
	return &zipf{
		n: float64(n), theta: theta, alpha: 1 / (1 - theta), zeta: zetan, half: half,
		eta: (1 - math.Pow(2/float64(n), 1-theta)) / (1 - (1+half)/zetan),
	}
}

func (z *zipf) draw(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zeta
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	r := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= int(z.n) {
		r = int(z.n) - 1
	}
	return r
}

// clusterPicker draws clusters zipfian by popularity rank and maps the
// rank through a seeded permutation, so the hot clusters are spread
// over the key space (and therefore over the edge nodes) instead of
// being clusters 0, 1, 2, ….
type clusterPicker struct {
	z    *zipf
	perm []int
}

func newClusterPicker(rng *rand.Rand, clusters int) *clusterPicker {
	return &clusterPicker{z: newZipf(clusters, zipfTheta), perm: rng.Perm(clusters)}
}

func (p *clusterPicker) pick(rng *rand.Rand) uint32 { return uint32(p.perm[p.z.draw(rng)]) }

// closedStream generates n ops for a closed-loop phase: kind decides
// each op's kind from one uniform draw.
func closedStream(rng *rand.Rand, p *clusterPicker, n int, kind func(u float64) opKind) *stream {
	s := &stream{ops: make([]op, n)}
	for i := range s.ops {
		s.ops[i] = op{cluster: p.pick(rng), kind: kind(rng.Float64())}
	}
	return s
}

// poissonStream generates an open-loop schedule over dur nanoseconds:
// one independent Poisson arrival process per (kind, rate) pair, merged
// in due order.
func poissonStream(rng *rand.Rand, p *clusterPicker, durNs int64, rates map[opKind]float64, scanShare float64) *stream {
	s := &stream{}
	type arrival struct {
		due  int64
		kind opKind
	}
	var next []arrival
	// Fixed kind order keeps the rng consumption deterministic.
	for k := opKind(0); k < numOpKinds; k++ {
		if rates[k] > 0 {
			next = append(next, arrival{due: int64(rng.ExpFloat64() / rates[k] * 1e9), kind: k})
		}
	}
	for {
		best := -1
		for i := range next {
			if next[i].due < durNs && (best < 0 || next[i].due < next[best].due) {
				best = i
			}
		}
		if best < 0 {
			return s
		}
		a := &next[best]
		kind := a.kind
		if kind == opRead && rng.Float64() < scanShare {
			kind = opScan
		}
		s.ops = append(s.ops, op{cluster: p.pick(rng), kind: kind})
		s.due = append(s.due, a.due)
		a.due += int64(rng.ExpFloat64() / rates[a.kind] * 1e9)
	}
}

// dataset is the seeded key space of one socket workload.
type dataset struct {
	keys   []tcache.Key
	values [][]byte // the bytes seeded at the DB (rmw_mix: counter 0 + pad)
	// clusters[c] are the 5 keys of cluster c; scans[c] the scanKeys
	// consecutive keys starting at its first key, wrapping at the end.
	clusters [][]tcache.Key
	scans    [][]tcache.Key
	// charged is Σ (key + value + per-entry overhead): the unit cache
	// byte budgets are expressed in.
	charged int64
}

// newDataset builds objects seeded values: fixed-size when minBytes ==
// maxBytes, bounded-Pareto sized otherwise.
func newDataset(rng *rand.Rand, objects, minBytes, maxBytes int, withScans bool) *dataset {
	d := &dataset{keys: make([]tcache.Key, objects), values: make([][]byte, objects)}
	for i := range d.keys {
		d.keys[i] = workload.ObjectKey(i)
		size := minBytes
		if maxBytes > minBytes {
			size = int(workload.BoundedPareto(rng, valueSizeAlpha, float64(minBytes), float64(maxBytes)))
		}
		v := make([]byte, size)
		rng.Read(v)
		d.values[i] = v
		d.charged += int64(len(d.keys[i])+size) + entryOverhead
	}
	n := objects / clusterSize
	d.clusters = make([][]tcache.Key, n)
	for c := range d.clusters {
		d.clusters[c] = d.keys[c*clusterSize : (c+1)*clusterSize]
	}
	if withScans {
		d.scans = make([][]tcache.Key, n)
		for c := range d.scans {
			ks := make([]tcache.Key, scanKeys)
			for j := range ks {
				ks[j] = d.keys[(c*clusterSize+j)%objects]
			}
			d.scans[c] = ks
		}
	}
	return d
}
