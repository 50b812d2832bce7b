// Package cluster implements the horizontal edge-cache tier: a
// consistent-hash ring that shards the key space over a fleet of tcached
// nodes, and a Router that fronts the fleet as a single cache Backend —
// splitting batch reads into per-node sub-batches, health-checking every
// node, and failing reads over to survivors without ever surfacing data
// older than what the client already observed (the per-range high-water
// floors of router.go).
package cluster

import (
	"fmt"
	"sort"
	"strings"

	"tcache/internal/kv"
)

// SplitAddrs parses the comma-separated node list of a -cluster flag,
// trimming whitespace and dropping empty entries; it returns nil for an
// empty flag. Shared by every command that accepts the flag so the
// syntax cannot drift between binaries.
func SplitAddrs(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// MaxMembers bounds ring membership so the failover walk can track
// visited members in a fixed-size bitmap, keeping the routing hot path
// allocation-free.
const MaxMembers = 256

// memberSet is an allocation-free visited-set over member indices.
type memberSet [MaxMembers / 64]uint64

func (s *memberSet) add(m int) bool {
	w, b := m/64, uint64(1)<<(m%64)
	if s[w]&b != 0 {
		return false
	}
	s[w] |= b
	return true
}

func (s *memberSet) has(m int) bool {
	return s[m/64]&(uint64(1)<<(m%64)) != 0
}

// ringPoint is one virtual node: a position on the hash circle owned by
// a member.
type ringPoint struct {
	hash   uint64
	member int32
}

// Ring is a consistent-hash ring with virtual nodes. Placement is a pure
// function of the member names and the vnode count: two rings built
// independently from the same membership route every key identically,
// which is what lets any client of the fleet agree on ownership without
// coordination. Adding or removing one of N members moves only the keys
// whose closest point belonged to it — about 1/N of the key space.
type Ring struct {
	members []string
	points  []ringPoint
}

// DefaultVNodes is the virtual-node count per member when NewRing is
// given 0: enough points that member shares stay within a few percent of
// uniform, while lookups stay a <10-step binary search for fleets of
// tens of nodes.
const DefaultVNodes = 128

// NewRing builds a ring over members (deduplicated, order-preserving)
// with vnodes virtual nodes per member (0 = DefaultVNodes).
func NewRing(members []string, vnodes int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	if len(members) > MaxMembers {
		return nil, fmt.Errorf("cluster: %d members exceeds the %d-member limit", len(members), MaxMembers)
	}
	seen := make(map[string]struct{}, len(members))
	for _, m := range members {
		if _, dup := seen[m]; dup {
			return nil, fmt.Errorf("cluster: duplicate member %q", m)
		}
		seen[m] = struct{}{}
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{
		members: append([]string(nil), members...),
		points:  make([]ringPoint, 0, len(members)*vnodes),
	}
	for mi, m := range members {
		h := fnv64(m)
		for v := 0; v < vnodes; v++ {
			// Derive each vnode point from the member hash and the vnode
			// index with two more FNV rounds; identical membership yields
			// identical points regardless of slice order because points are
			// sorted below and ties broken by member name at lookup time
			// never arise (64-bit collisions aside).
			r.points = append(r.points, ringPoint{hash: mix64(h, uint64(v)), member: int32(mi)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.members[r.points[i].member] < r.members[r.points[j].member]
	})
	return r, nil
}

// Members returns the ring's member names in construction order.
func (r *Ring) Members() []string { return r.members }

// NumPoints returns the total virtual-node count.
func (r *Ring) NumPoints() int { return len(r.points) }

// KeyHash hashes a key onto the ring's circle: 64-bit FNV-1a through a
// splitmix64 finalizer, so structured key sets (object-1, object-2, …)
// spread over the full 64-bit circle instead of clustering. It is
// exported so callers can reuse the hash for both ownership lookup and
// range bucketing without hashing twice.
func KeyHash(key kv.Key) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return finalize64(h)
}

// Start returns the index of the first ring point at or clockwise of
// hash (wrapping past the top of the circle).
func (r *Ring) Start(hash uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= hash })
	if i == len(r.points) {
		return 0
	}
	return i
}

// PointMember returns the member owning ring point i.
func (r *Ring) PointMember(i int) int { return int(r.points[i].member) }

// NextPoint steps one point clockwise.
func (r *Ring) NextPoint(i int) int {
	if i++; i == len(r.points) {
		return 0
	}
	return i
}

// Lookup returns the member owning key — the member of the first ring
// point clockwise of the key's hash — along with the hash itself for
// reuse. It never allocates.
func (r *Ring) Lookup(key kv.Key) (member int, hash uint64) {
	hash = KeyHash(key)
	return int(r.points[r.Start(hash)].member), hash
}

// fnv64 hashes a string with 64-bit FNV-1a.
func fnv64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix64 folds a vnode index into a member hash. Plain FNV over the
// index bytes leaves consecutive indices correlated (the member shares
// come out badly skewed); the splitmix64 finalizer gives full avalanche,
// so every vnode lands at an effectively independent position.
func mix64(h, v uint64) uint64 {
	return finalize64(h ^ (v+1)*0x9E3779B97F4A7C15)
}

// finalize64 is the splitmix64 finalizer: a cheap bijective mixer with
// full avalanche.
func finalize64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
