package graph

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestAddEdgeBasics(t *testing.T) {
	g := New(3)
	if !g.AddEdge(0, 1) {
		t.Fatal("AddEdge(0,1) = false")
	}
	if g.AddEdge(0, 1) || g.AddEdge(1, 0) {
		t.Fatal("duplicate edge added")
	}
	if g.AddEdge(1, 1) {
		t.Fatal("self-loop added")
	}
	if g.AddEdge(0, 5) || g.AddEdge(-1, 0) {
		t.Fatal("out-of-range edge added")
	}
	if g.NumEdges() != 1 || g.NumNodes() != 3 {
		t.Fatalf("counts = %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	if g.Degree(0) != 1 || g.Degree(2) != 0 {
		t.Fatal("Degree wrong")
	}
}

func TestAddNode(t *testing.T) {
	g := New(0)
	if id := g.AddNode(); id != 0 {
		t.Fatalf("first AddNode = %d", id)
	}
	if id := g.AddNode(); id != 1 {
		t.Fatalf("second AddNode = %d", id)
	}
}

func TestClusteringCoefficient(t *testing.T) {
	// Triangle: every node has coefficient 1.
	tri := New(3)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(0, 2)
	for u := 0; u < 3; u++ {
		if got := tri.ClusteringCoefficient(u); got != 1 {
			t.Fatalf("triangle node %d coefficient = %v", u, got)
		}
	}
	if got := tri.AverageClustering(); got != 1 {
		t.Fatalf("triangle average clustering = %v", got)
	}

	// Path 0-1-2: middle node has two unconnected neighbors.
	path := New(3)
	path.AddEdge(0, 1)
	path.AddEdge(1, 2)
	if got := path.ClusteringCoefficient(1); got != 0 {
		t.Fatalf("path center coefficient = %v", got)
	}
	if got := path.ClusteringCoefficient(0); got != 0 {
		t.Fatalf("degree-1 coefficient = %v, want 0", got)
	}

	// Square plus one diagonal: node 0 (deg 3) has neighbors {1,2,3},
	// among which exactly one edge exists out of three pairs.
	sq := New(4)
	sq.AddEdge(0, 1)
	sq.AddEdge(0, 2)
	sq.AddEdge(0, 3)
	sq.AddEdge(1, 2)
	want := 1.0 / 3.0
	if got := sq.ClusteringCoefficient(0); got != want {
		t.Fatalf("coefficient = %v, want %v", got, want)
	}
}

func TestAverageDegree(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if got := g.AverageDegree(); got != 1 {
		t.Fatalf("AverageDegree = %v, want 1", got)
	}
	if got := New(0).AverageDegree(); got != 0 {
		t.Fatalf("empty AverageDegree = %v", got)
	}
}

func TestLargestComponent(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	if got := g.LargestComponent(); got != 3 {
		t.Fatalf("LargestComponent = %d, want 3", got)
	}
}

func TestRandomWalkLengthAndConnectivity(t *testing.T) {
	g := New(10)
	for i := 0; i < 9; i++ {
		g.AddEdge(i, i+1)
	}
	rng := rand.New(rand.NewSource(1))
	walk := g.RandomWalk(5, 8, rng)
	if len(walk) != 9 {
		t.Fatalf("walk length = %d, want 9", len(walk))
	}
	if walk[0] != 5 {
		t.Fatalf("walk start = %d", walk[0])
	}
	for i := 1; i < len(walk); i++ {
		if !g.HasEdge(walk[i-1], walk[i]) {
			t.Fatalf("walk step %d not an edge: %d-%d", i, walk[i-1], walk[i])
		}
	}
}

func TestRandomWalkIsolatedNode(t *testing.T) {
	g := New(2)
	rng := rand.New(rand.NewSource(1))
	walk := g.RandomWalk(0, 5, rng)
	if len(walk) != 1 || walk[0] != 0 {
		t.Fatalf("isolated walk = %v", walk)
	}
	if g.RandomNeighbor(0, rng) != -1 {
		t.Fatal("RandomNeighbor on isolated node != -1")
	}
}

func TestSubgraph(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	sub := g.Subgraph([]int{1, 2, 3})
	if sub.NumNodes() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("subgraph = %d nodes %d edges", sub.NumNodes(), sub.NumEdges())
	}
	// 1→0, 2→1, 3→2 relabelling.
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) || sub.HasEdge(0, 2) {
		t.Fatal("subgraph edges wrong")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	var sb strings.Builder
	if err := g.WriteEdgeList(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != 4 || back.NumEdges() != 3 {
		t.Fatalf("round trip = %d nodes %d edges", back.NumNodes(), back.NumEdges())
	}
}

func TestReadEdgeListCommentsAndErrors(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# SNAP header\n\n10 20\n20 30\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("parsed %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if _, err := ReadEdgeList(strings.NewReader("1\n")); err == nil {
		t.Fatal("short line accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Fatal("non-numeric line accepted")
	}
}

func TestGenerateAffinityStructure(t *testing.T) {
	g := GenerateAffinity(DefaultAffinityConfig(1000))
	if g.NumNodes() != 1000 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	cc := g.AverageClustering()
	if cc < 0.3 {
		t.Fatalf("affinity clustering = %v, want visibly clustered (>0.3)", cc)
	}
	if g.LargestComponent() < 900 {
		t.Fatalf("affinity graph too fragmented: %d", g.LargestComponent())
	}
}

func TestGenerateSocialStructure(t *testing.T) {
	g := GenerateSocial(DefaultSocialConfig(1000))
	if g.NumNodes() != 1000 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.LargestComponent() < 990 {
		t.Fatalf("social graph should be connected: %d", g.LargestComponent())
	}
	// Heavy tail: max degree well above the average.
	maxDeg := 0
	for u := 0; u < g.NumNodes(); u++ {
		if d := g.Degree(u); d > maxDeg {
			maxDeg = d
		}
	}
	if avg := g.AverageDegree(); float64(maxDeg) < 4*avg {
		t.Fatalf("no heavy tail: max degree %d vs avg %.1f", maxDeg, avg)
	}
}

func TestAffinityMoreClusteredThanSocial(t *testing.T) {
	// Fig. 7(a,b): "visibly clustered, the Amazon topology more so than
	// the Orkut one". Our generators must preserve that ordering.
	aff := GenerateAffinity(DefaultAffinityConfig(1000))
	soc := GenerateSocial(DefaultSocialConfig(1000))
	ca, cs := aff.AverageClustering(), soc.AverageClustering()
	if ca <= cs {
		t.Fatalf("affinity clustering %.3f not above social %.3f", ca, cs)
	}
	if cs < 0.02 {
		t.Fatalf("social clustering %.3f too low to be 'visibly clustered'", cs)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := GenerateAffinity(DefaultAffinityConfig(200))
	b := GenerateAffinity(DefaultAffinityConfig(200))
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("affinity generation not deterministic")
	}
	s1 := GenerateSocial(DefaultSocialConfig(200))
	s2 := GenerateSocial(DefaultSocialConfig(200))
	if s1.NumEdges() != s2.NumEdges() {
		t.Fatal("social generation not deterministic")
	}
}

func TestRandomWalkSample(t *testing.T) {
	g := GenerateSocial(DefaultSocialConfig(3000))
	sample := RandomWalkSample(g, 1000, 0.15, 7)
	if sample.NumNodes() != 1000 {
		t.Fatalf("sample nodes = %d, want 1000", sample.NumNodes())
	}
	// The sample must stay well-connected (the method's selling point).
	if got := sample.LargestComponent(); got < 900 {
		t.Fatalf("sample fragmented: largest component %d", got)
	}
}

func TestRandomWalkSampleWholeGraph(t *testing.T) {
	g := GenerateAffinity(DefaultAffinityConfig(100))
	sample := RandomWalkSample(g, 100, 0.15, 1)
	if sample.NumNodes() != g.NumNodes() || sample.NumEdges() != g.NumEdges() {
		t.Fatal("target >= N should return a copy of the graph")
	}
}

func TestRandomWalkSampleDisconnected(t *testing.T) {
	// Two disjoint cliques: the stagnation guard must jump components.
	g := New(20)
	for u := 0; u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			g.AddEdge(u, v)
			g.AddEdge(u+10, v+10)
		}
	}
	sample := RandomWalkSample(g, 15, 0.15, 3)
	if sample.NumNodes() != 15 {
		t.Fatalf("sample across components = %d nodes, want 15", sample.NumNodes())
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	h := g.DegreeHistogram()
	// degrees: 0:2, 1:1, 2:1, 3:0 → histogram {0:1, 1:2, 2:1}
	want := [][2]int{{0, 1}, {1, 2}, {2, 1}}
	if len(h) != len(want) {
		t.Fatalf("histogram = %v", h)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("histogram = %v, want %v", h, want)
		}
	}
}

// TestSubgraphAdjacencyOrderIsDeterministic: the induced adjacency lists
// follow the order of nodes (and, within a node, the parent's adjacency
// order) — a seeded random walk over the result draws neighbours by
// position, so any other order changes every topology-driven experiment.
func TestSubgraphAdjacencyOrderIsDeterministic(t *testing.T) {
	g := New(64)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		g.AddEdge(rng.Intn(64), rng.Intn(64))
	}
	nodes := rng.Perm(64)[:40]
	nodes = append(nodes, nodes[3], -1, 99) // a duplicate and two unknown ids
	want := g.Subgraph(nodes)
	for round := 0; round < 20; round++ {
		got := g.Subgraph(nodes)
		for u := 0; u < want.NumNodes(); u++ {
			if !reflect.DeepEqual(got.Neighbors(u), want.Neighbors(u)) {
				t.Fatalf("round %d: node %d neighbours %v, first build had %v", round, u, got.Neighbors(u), want.Neighbors(u))
			}
		}
	}
	// nodes[3] appears twice: its later position wins the label, the
	// earlier one is an isolated placeholder.
	if want.Degree(3) != 0 {
		t.Fatalf("duplicate's earlier slot has degree %d, want 0", want.Degree(3))
	}
}
