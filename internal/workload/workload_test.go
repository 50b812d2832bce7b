package workload

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"tcache/internal/graph"
	"tcache/internal/kv"
)

func objIndex(t *testing.T, k kv.Key) int {
	t.Helper()
	var i int
	if _, err := fmtSscanf(string(k), &i); err != nil {
		t.Fatalf("bad key %q: %v", k, err)
	}
	return i
}

// fmtSscanf avoids importing fmt twice in test helpers.
func fmtSscanf(s string, i *int) (int, error) {
	if !strings.HasPrefix(s, "o") {
		return 0, errBadKey
	}
	n := 0
	for _, c := range s[1:] {
		if c < '0' || c > '9' {
			return 0, errBadKey
		}
		n = n*10 + int(c-'0')
	}
	*i = n
	return 1, nil
}

var errBadKey = &keyError{}

type keyError struct{}

func (*keyError) Error() string { return "bad key" }

func TestObjectKeyStable(t *testing.T) {
	if ObjectKey(7) != "o000007" {
		t.Fatalf("ObjectKey(7) = %q", ObjectKey(7))
	}
	var i int
	if _, err := fmtSscanf(string(ObjectKey(123)), &i); err != nil || i != 123 {
		t.Fatalf("round trip = %d, %v", i, err)
	}
}

func TestPerfectClustersStayInCluster(t *testing.T) {
	g := &PerfectClusters{Objects: 2000, ClusterSize: 5, TxnSize: 5}
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		keys := g.Pick(rng)
		if len(keys) != 5 {
			t.Fatalf("txn size = %d", len(keys))
		}
		base := objIndex(t, keys[0]) / 5
		for _, k := range keys {
			if objIndex(t, k)/5 != base {
				t.Fatalf("access escaped cluster: %v", keys)
			}
		}
	}
}

func TestPerfectClustersShift(t *testing.T) {
	g := &PerfectClusters{Objects: 100, ClusterSize: 5, TxnSize: 5, Shift: 0}
	g.Advance()
	if g.Shift != 1 {
		t.Fatalf("Shift = %d", g.Shift)
	}
	rng := rand.New(rand.NewSource(2))
	// With shift 1, clusters are 1-5, 6-10, ...: all members of one pick
	// must span a contiguous window of 5 starting at c*5+1.
	for iter := 0; iter < 200; iter++ {
		keys := g.Pick(rng)
		min, max := 1<<30, -1
		for _, k := range keys {
			i := objIndex(t, k)
			if i < min {
				min = i
			}
			if i > max {
				max = i
			}
		}
		if max-min >= 5 && !(min < 5 && max >= 95) { // allow wraparound
			t.Fatalf("shifted cluster too wide: %v", keys)
		}
	}
	// Advance wraps at Objects.
	g.Shift = 99
	g.Advance()
	if g.Shift != 0 {
		t.Fatalf("Shift wrap = %d", g.Shift)
	}
}

func TestBoundedParetoSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, alpha := range []float64{1.0 / 32, 0.5, 1, 4} {
		for i := 0; i < 2000; i++ {
			x := BoundedPareto(rng, alpha, 1, 2000)
			if x < 1 || x > 2000 {
				t.Fatalf("alpha=%v: sample %v out of [1,2000]", alpha, x)
			}
		}
	}
}

func TestBoundedParetoShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	within := func(alpha float64) float64 {
		in := 0
		const n = 20000
		for i := 0; i < n; i++ {
			if BoundedPareto(rng, alpha, 1, 2000) <= 5 {
				in++
			}
		}
		return float64(in) / n
	}
	spiked := within(4)      // should be ≈1
	flat := within(1.0 / 32) // should be small
	if spiked < 0.99 {
		t.Fatalf("alpha=4: only %.3f of mass within cluster width", spiked)
	}
	if flat > 0.4 {
		t.Fatalf("alpha=1/32: %.3f of mass within cluster width (too clustered)", flat)
	}
}

func TestBoundedParetoDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if got := BoundedPareto(rng, 0, 1, 10); got != 1 {
		t.Fatalf("alpha=0 → %v, want lo", got)
	}
	if got := BoundedPareto(rng, 1, 5, 5); got != 5 {
		t.Fatalf("hi==lo → %v, want lo", got)
	}
}

func TestParetoClustersHighAlphaMostlyInCluster(t *testing.T) {
	g := &ParetoClusters{Objects: 2000, ClusterSize: 5, TxnSize: 5, Alpha: 4}
	rng := rand.New(rand.NewSource(6))
	inCluster, total := 0, 0
	for iter := 0; iter < 500; iter++ {
		keys := g.Pick(rng)
		head := (objIndex(t, keys[0]) / 5) * 5 // approximate: first key's cluster
		for _, k := range keys {
			total++
			i := objIndex(t, k)
			if i >= head && i < head+5 {
				inCluster++
			}
		}
	}
	if ratio := float64(inCluster) / float64(total); ratio < 0.9 {
		t.Fatalf("alpha=4 in-cluster ratio = %.3f, want >0.9", ratio)
	}
}

func TestParetoClustersLowAlphaSpreads(t *testing.T) {
	g := &ParetoClusters{Objects: 2000, ClusterSize: 5, TxnSize: 5, Alpha: 1.0 / 32}
	rng := rand.New(rand.NewSource(7))
	distinct := map[int]bool{}
	for iter := 0; iter < 400; iter++ {
		for _, k := range g.Pick(rng) {
			distinct[objIndex(t, k)] = true
		}
	}
	if len(distinct) < 500 {
		t.Fatalf("alpha=1/32 touched only %d distinct objects; want broad spread", len(distinct))
	}
}

func TestUniformCoversRange(t *testing.T) {
	g := &Uniform{Objects: 50, TxnSize: 5}
	rng := rand.New(rand.NewSource(8))
	seen := map[int]bool{}
	for iter := 0; iter < 400; iter++ {
		for _, k := range g.Pick(rng) {
			i := objIndex(t, k)
			if i < 0 || i >= 50 {
				t.Fatalf("out of range: %d", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 50 {
		t.Fatalf("uniform covered %d/50 objects", len(seen))
	}
}

func TestSwitchFlips(t *testing.T) {
	s := &Switch{
		Before: &Uniform{Objects: 10, TxnSize: 1},
		After:  &PerfectClusters{Objects: 10, ClusterSize: 5, TxnSize: 5},
	}
	rng := rand.New(rand.NewSource(9))
	if got := len(s.Pick(rng)); got != 1 {
		t.Fatalf("before flip txn size = %d", got)
	}
	if s.Flipped() {
		t.Fatal("Flipped before Flip")
	}
	s.Flip()
	if !s.Flipped() {
		t.Fatal("not Flipped after Flip")
	}
	if got := len(s.Pick(rng)); got != 5 {
		t.Fatalf("after flip txn size = %d", got)
	}
}

func TestGraphWalkPicksConnectedKeys(t *testing.T) {
	g := graph.New(10)
	for i := 0; i < 9; i++ {
		g.AddEdge(i, i+1)
	}
	w := &GraphWalk{Graph: g, Steps: 5, Prefix: "amz-"}
	rng := rand.New(rand.NewSource(10))
	keys := w.Pick(rng)
	if len(keys) != 6 {
		t.Fatalf("walk txn size = %d, want 6 (start + 5 steps)", len(keys))
	}
	for _, k := range keys {
		if !strings.HasPrefix(string(k), "amz-n") {
			t.Fatalf("key %q missing prefix", k)
		}
	}
}

func TestGraphWalkKeys(t *testing.T) {
	g := graph.New(3)
	w := &GraphWalk{Graph: g, Steps: 2}
	keys := w.Keys()
	if len(keys) != 3 || keys[0] != "n000000" {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestAllObjectKeys(t *testing.T) {
	keys := AllObjectKeys(3)
	if len(keys) != 3 || keys[2] != ObjectKey(2) {
		t.Fatalf("AllObjectKeys = %v", keys)
	}
}

func TestGeneratorsDeterministicGivenSeed(t *testing.T) {
	gens := []Generator{
		&PerfectClusters{Objects: 100, ClusterSize: 5, TxnSize: 5},
		&ParetoClusters{Objects: 100, ClusterSize: 5, TxnSize: 5, Alpha: 1},
		&Uniform{Objects: 100, TxnSize: 5},
	}
	for _, g := range gens {
		a := g.Pick(rand.New(rand.NewSource(42)))
		b := g.Pick(rand.New(rand.NewSource(42)))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%T not deterministic: %v vs %v", g, a, b)
			}
		}
	}
}

func TestBoundedParetoMeanDecreasesWithAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mean := func(alpha float64) float64 {
		sum := 0.0
		const n = 20000
		for i := 0; i < n; i++ {
			sum += BoundedPareto(rng, alpha, 1, 2000)
		}
		return sum / n
	}
	m1, m2 := mean(0.25), mean(2)
	if !(m1 > m2) || math.IsNaN(m1) || math.IsNaN(m2) {
		t.Fatalf("mean(0.25)=%v should exceed mean(2)=%v", m1, m2)
	}
}

// walkGraph is a 100-node path: every walk takes all its steps.
func walkGraph() *graph.Graph {
	g := graph.New(100)
	for i := 0; i < 99; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// TestPickSharesTableStrings checks that picks hand out table strings
// rather than formatting new ones: GraphWalk.Pick allocates only its walk
// and the returned slice, every picked key is the very string Keys and
// Key return for that node, and every ObjectKey generator — whatever its
// object count — picks the strings AllObjectKeys seeds with.
func TestPickSharesTableStrings(t *testing.T) {
	w := &GraphWalk{Graph: walkGraph(), Steps: 5, Prefix: "amz-"}
	rng := rand.New(rand.NewSource(12))
	if n := testing.AllocsPerRun(200, func() { w.Pick(rng) }); n > 2 {
		t.Fatalf("GraphWalk.Pick allocates %v times, want ≤ 2 (the walk and the key slice)", n)
	}
	p := &PerfectClusters{Objects: 100, ClusterSize: 5, TxnSize: 5}
	if n := testing.AllocsPerRun(200, func() { p.Pick(rng) }); n > 1 {
		t.Fatalf("PerfectClusters.Pick allocates %v times, want ≤ 1 (the key slice)", n)
	}

	sameString := func(a, b kv.Key) bool {
		return len(a) == len(b) && unsafe.StringData(string(a)) == unsafe.StringData(string(b))
	}
	keys := w.Keys()
	for _, k := range w.Pick(rng) {
		n, err := strconv.Atoi(strings.TrimPrefix(string(k), "amz-n"))
		if err != nil {
			t.Fatalf("key %q: %v", k, err)
		}
		if !sameString(k, keys[n]) || !sameString(k, w.Key(n)) {
			t.Fatalf("picked %q is not the table's string for node %d", k, n)
		}
	}
	objs := AllObjectKeys(100)
	for _, g := range []Generator{
		p,
		&ParetoClusters{Objects: 100, ClusterSize: 5, TxnSize: 5, Alpha: 1},
		&Uniform{Objects: 100, TxnSize: 5},
		&Uniform{Objects: 80, TxnSize: 5},   // a shorter view of the table
		&Uniform{Objects: 4000, TxnSize: 5}, // grows it
	} {
		for _, k := range g.Pick(rng) {
			if i := objIndex(t, k); i < len(objs) && !sameString(k, objs[i]) {
				t.Fatalf("%T picked %q, not the seeded string for object %d", g, k, i)
			}
		}
	}
	if grown := AllObjectKeys(4000); !sameString(grown[7], objs[7]) || grown[3999] != ObjectKey(3999) {
		t.Fatal("growing the table replaced the strings already handed out")
	}
	// AllObjectKeys is a fresh slice each call: a caller may reorder its copy.
	objs[0] = "scribbled"
	if AllObjectKeys(1)[0] != ObjectKey(0) {
		t.Fatal("AllObjectKeys returned the table itself")
	}
}

// TestPickConcurrentFirstUse races the first picks of fresh generators
// from 8 goroutines, each with its own rng: the key table is built once,
// and each goroutine's picks equal a sequential replay of its seed. Run it
// under -race.
func TestPickConcurrentFirstUse(t *testing.T) {
	fresh := map[string]func() Generator{
		"GraphWalk": func() Generator { return &GraphWalk{Graph: walkGraph(), Steps: 5} },
		// An object count no other test uses, so the first picks race to
		// grow the shared table.
		"PerfectClusters": func() Generator {
			return &PerfectClusters{Objects: 7919, ClusterSize: 7, TxnSize: 5}
		},
	}
	for name, mk := range fresh {
		t.Run(name, func(t *testing.T) {
			const workers, picks = 8, 200
			shared := mk()
			got := make([][][]kv.Key, workers)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(i)))
					for j := 0; j < picks; j++ {
						got[i] = append(got[i], shared.Pick(rng))
					}
				}()
			}
			wg.Wait()
			for i := range got {
				replay, rng := mk(), rand.New(rand.NewSource(int64(i)))
				for j, keys := range got[i] {
					if want := replay.Pick(rng); !slices.Equal(keys, want) {
						t.Fatalf("worker %d pick %d = %v, sequential replay %v", i, j, keys, want)
					}
				}
			}
		})
	}
}
