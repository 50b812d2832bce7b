// Package graph provides the graph substrate behind the paper's realistic
// workloads (§V-B): an undirected graph type, synthetic generators that
// stand in for the Amazon product co-purchasing snapshot [15] and the
// Orkut friendship snapshot [21], the random-walk down-sampling of
// Leskovec & Faloutsos [16], clustering metrics, and edge-list I/O for
// loading the real snapshots when available.
package graph

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Graph is a simple undirected graph over nodes 0..N-1. The zero value is
// an empty graph; grow it with AddNode/AddEdge. Graph is not safe for
// concurrent mutation.
type Graph struct {
	adj [][]int32
	// edgeCount counts each undirected edge once.
	edgeCount int
}

// New creates a graph with n isolated nodes.
func New(n int) *Graph {
	return &Graph{adj: make([][]int32, n)}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.edgeCount }

// AddNode appends an isolated node and returns its id.
func (g *Graph) AddNode() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// AddEdge adds the undirected edge {u, v}, ignoring self-loops and
// duplicates. It reports whether a new edge was added.
func (g *Graph) AddEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		return false
	}
	if g.HasEdge(u, v) {
		return false
	}
	g.adj[u] = append(g.adj[u], int32(v))
	g.adj[v] = append(g.adj[v], int32(u))
	g.edgeCount++
	return true
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) {
		return false
	}
	a := g.adj[u]
	if len(g.adj[v]) < len(a) {
		a = g.adj[v]
		u, v = v, u
	}
	for _, w := range a {
		if int(w) == v {
			return true
		}
	}
	return false
}

// Degree returns the degree of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Neighbors returns u's adjacency slice. Callers must not modify it.
func (g *Graph) Neighbors(u int) []int32 { return g.adj[u] }

// RandomNeighbor returns a uniformly random neighbor of u, or -1 if u is
// isolated.
func (g *Graph) RandomNeighbor(u int, rng *rand.Rand) int {
	a := g.adj[u]
	if len(a) == 0 {
		return -1
	}
	return int(a[rng.Intn(len(a))])
}

// RandomWalk performs a steps-step random walk from start and returns the
// nodes visited, including start (length steps+1 unless the walk gets
// stuck on an isolated node). This is how §V-B1 builds transactions.
func (g *Graph) RandomWalk(start, steps int, rng *rand.Rand) []int {
	out := make([]int, 0, steps+1)
	out = append(out, start)
	cur := start
	for i := 0; i < steps; i++ {
		next := g.RandomNeighbor(cur, rng)
		if next < 0 {
			break
		}
		out = append(out, next)
		cur = next
	}
	return out
}

// AverageDegree returns 2E/N, or 0 for the empty graph.
func (g *Graph) AverageDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.edgeCount) / float64(len(g.adj))
}

// ClusteringCoefficient returns the local clustering coefficient of u:
// the fraction of u's neighbor pairs that are themselves connected.
// Nodes with degree < 2 have coefficient 0.
func (g *Graph) ClusteringCoefficient(u int) float64 {
	nbrs := g.adj[u]
	d := len(nbrs)
	if d < 2 {
		return 0
	}
	set := make(map[int32]struct{}, d)
	for _, w := range nbrs {
		set[w] = struct{}{}
	}
	// Each triangle edge {w, x} with w, x ∈ N(u) is seen twice (once from
	// each endpoint's adjacency list).
	links := 0
	for _, w := range nbrs {
		for _, x := range g.adj[w] {
			if _, ok := set[x]; ok {
				links++
			}
		}
	}
	links /= 2
	return 2 * float64(links) / float64(d*(d-1))
}

// AverageClustering returns the mean local clustering coefficient over
// all nodes (Watts–Strogatz definition).
func (g *Graph) AverageClustering() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	sum := 0.0
	for u := range g.adj {
		sum += g.ClusteringCoefficient(u)
	}
	return sum / float64(len(g.adj))
}

// LargestComponent returns the node count of the largest connected
// component.
func (g *Graph) LargestComponent() int {
	seen := make([]bool, len(g.adj))
	best := 0
	var stack []int
	for s := range g.adj {
		if seen[s] {
			continue
		}
		size := 0
		stack = append(stack[:0], s)
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			for _, w := range g.adj[u] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, int(w))
				}
			}
		}
		if size > best {
			best = size
		}
	}
	return best
}

// Subgraph returns the induced subgraph on nodes (relabelled 0..len-1 in
// the given order). Unknown ids are ignored.
func (g *Graph) Subgraph(nodes []int) *Graph {
	relabel := make(map[int]int, len(nodes))
	for i, u := range nodes {
		if u >= 0 && u < len(g.adj) {
			relabel[u] = i
		}
	}
	out := New(len(nodes))
	// In the order given, never the map's: adjacency order decides which
	// neighbour a seeded random walk draws.
	for i, u := range nodes {
		if at, ok := relabel[u]; !ok || at != i {
			continue // unknown id, or an earlier duplicate of a later one
		}
		for _, w := range g.adj[u] {
			if j, ok := relabel[int(w)]; ok && i < j {
				out.AddEdge(i, j)
			}
		}
	}
	return out
}

// WriteEdgeList writes "u v" lines, one per undirected edge (u < v).
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if u < int(v) {
				if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses a whitespace-separated edge list (as published for
// the SNAP Amazon and Orkut snapshots). Lines starting with '#' are
// comments. Node ids may be arbitrary non-negative integers; they are
// compacted to 0..N-1 in first-appearance order.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	g := New(0)
	ids := make(map[int64]int)
	intern := func(raw int64) int {
		if id, ok := ids[raw]; ok {
			return id
		}
		id := g.AddNode()
		ids[raw] = id
		return id
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 2 fields, got %d", line, len(fields))
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", line, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", line, err)
		}
		g.AddEdge(intern(u), intern(v))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read edge list: %w", err)
	}
	return g, nil
}

// DegreeHistogram returns sorted (degree, count) pairs.
func (g *Graph) DegreeHistogram() [][2]int {
	counts := make(map[int]int)
	for u := range g.adj {
		counts[len(g.adj[u])]++
	}
	out := make([][2]int, 0, len(counts))
	for d, c := range counts {
		out = append(out, [2]int{d, c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
