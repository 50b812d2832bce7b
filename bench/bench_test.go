package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

const specPath = "../BENCHMARK.json"

// TestDeclaredMetricsEmitted runs every declared workload through both
// passes in -quick mode and checks the contract line: exactly the
// declared metric names of the pass (put rejects a second report of a
// name, checkEmitted a missing or undeclared one), well-formed names,
// the declared units, no failed operation.
func TestDeclaredMetricsEmitted(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != 4 {
		t.Fatalf("BENCHMARK.json declares %d workloads, want 4", len(spec.Workloads))
	}
	for _, wl := range spec.Workloads {
		for trace, declared := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", wl.Name, trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{
					"-workload", wl.Name, "-trace", fmt.Sprint(trace), "-seed", "7",
					"-quick", "-seconds", "0.4", "-spec", specPath, "-workdir", t.TempDir(),
				}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var got struct {
					Correct   bool
					Attempted uint64
					Failed    uint64
					Metrics   map[string]metric
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&got); err != nil {
					t.Fatalf("last line is not the contract object: %v\n%s", err, lines[len(lines)-1])
				}
				if !got.Correct || got.Attempted == 0 || got.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", got.Correct, got.Attempted, got.Failed)
				}
				if len(got.Metrics) != len(declared) {
					t.Errorf("%d metrics reported, %d declared", len(got.Metrics), len(declared))
				}
				for _, m := range declared {
					g, ok := got.Metrics[m.Name]
					if !ok {
						t.Errorf("declared metric %s not reported", m.Name)
						continue
					}
					if g.Unit != m.Unit {
						t.Errorf("%s reported in %q, declared %q", m.Name, g.Unit, m.Unit)
					}
					if !metricNameRE.MatchString(m.Name) {
						t.Errorf("metric name %q is malformed", m.Name)
					}
					if math.IsNaN(g.Value) || math.IsInf(g.Value, 0) {
						t.Errorf("%s = %v", m.Name, g.Value)
					}
					if trace == 0 && g.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", m.Name)
					}
				}
			})
		}
	}
}

// TestHistQuantiles checks the latency recorder against exact
// quantiles of known samples: within 1 % everywhere in its range.
func TestHistQuantiles(t *testing.T) {
	// Every bucket's bounds contain its values and are at most 1/128 wide.
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1000, 12345, 1 << 20, 1<<20 + 1, 987654321, 1 << 40} {
		lo, hi := histBounds(histIndex(v))
		if v < lo || v > hi {
			t.Errorf("value %d placed in bucket [%d,%d]", v, lo, hi)
		}
		if lo > 0 && float64(hi-lo)/float64(lo) > 1.0/histSub {
			t.Errorf("bucket [%d,%d] wider than 1/%d", lo, hi, histSub)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name string
		draw func() int64
	}{
		{"uniform 1us-1ms", func() int64 { return 1000 + rng.Int63n(999000) }},
		{"lognormal around 100us", func() int64 { return int64(100e3 * math.Exp(rng.NormFloat64())) }},
		{"bimodal hit/miss", func() int64 {
			if rng.Intn(10) < 7 {
				return 1500 + rng.Int63n(200)
			}
			return 80e3 + rng.Int63n(40e3)
		}},
	} {
		h, parts := newHist(), []*hist{newHist(), newHist()}
		xs := make([]float64, 200000)
		for i := range xs {
			v := tc.draw()
			xs[i] = float64(v)
			parts[i%2].record(v)
		}
		h.merge(parts[0])
		h.merge(parts[1])
		sort.Float64s(xs)
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			exact := xs[int(q*float64(len(xs))+0.5)-1]
			if got := h.quantile(q); math.Abs(got-exact)/exact > 0.01 {
				t.Errorf("%s: q%.3f = %.0f, exact %.0f", tc.name, q, got, exact)
			}
		}
		if h.n != uint64(len(xs)) {
			t.Errorf("%s: n = %d after merge", tc.name, h.n)
		}
	}
	if got := newHist().quantile(0.5); got != 0 {
		t.Errorf("empty histogram median = %v", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns, since the acceptance driver
// computes its spreads with that function.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 38},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestOpStreamFromSeed: the op stream is a function of the seed alone.
func TestOpStreamFromSeed(t *testing.T) {
	hash := func(seed int64) uint64 {
		s := newSockWorkload("edge_miss", seed, true)
		rng := rand.New(rand.NewSource(seed))
		return hashStreams(s.closed, poissonStream(rng, s.picker, 1e9, s.openRates, s.scanShare))
	}
	if hash(1) != hash(1) {
		t.Error("same seed, different op stream")
	}
	if hash(1) == hash(2) {
		t.Error("different seeds, same op stream")
	}
	// The zipfian picker is skewed the way theta=0.99 says: the most
	// popular of 400 clusters draws about 1/zeta(400) = 15 % of the ops.
	rng := rand.New(rand.NewSource(3))
	z := newZipf(400, zipfTheta)
	top := 0
	const draws = 200000
	for i := 0; i < draws; i++ {
		r := z.draw(rng)
		if r < 0 || r >= 400 {
			t.Fatalf("rank %d out of range", r)
		}
		if r == 0 {
			top++
		}
	}
	if share := float64(top) / draws; share < 0.13 || share > 0.17 {
		t.Errorf("top rank drew %.3f of ops, want about 0.15", share)
	}
}

// TestCompareVerdicts: -compare passes a change inside its bound, fails
// one past it, and calls a row unresolved when the runs themselves
// spread wider than the bound.
func TestCompareVerdicts(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(value func(workload, metric string, i int) float64) samples {
		s := make(samples)
		for _, wl := range spec.Workloads {
			s[wl.Name] = make(map[string][]float64)
			for _, m := range spec.EndToEnd {
				for i := 0; i < 10; i++ {
					s[wl.Name][m.Name] = append(s[wl.Name][m.Name], value(wl.Name, m.Name, i))
				}
			}
		}
		return s
	}
	steady := fill(func(_, _ string, i int) float64 { return 100 + 0.1*float64(i) })
	var out bytes.Buffer
	if code := compareSamples(spec, steady, steady, &out); code != 0 || strings.Contains(out.String(), "unresolved") {
		t.Errorf("identical files: exit %d\n%s", code, out.String())
	}

	// txn_per_s (higher is better) drops by twice its bound on rmw_mix only.
	tps, _ := spec.endToEnd("txn_per_s")
	slower := fill(func(w, m string, i int) float64 {
		v := 100 + 0.1*float64(i)
		if w == "rmw_mix" && m == "txn_per_s" {
			v *= 1 - 2*tps.Bound
		}
		return v
	})
	out.Reset()
	if code := compareSamples(spec, steady, slower, &out); code == 0 {
		t.Errorf("a drop of twice the bound passed:\n%s", out.String())
	}
	if n := strings.Count(out.String(), "REGRESSION"); n != 1 {
		t.Errorf("%d REGRESSION rows, want exactly rmw_mix/txn_per_s:\n%s", n, out.String())
	}

	// The same drop hidden in runs that spread far wider than the bound
	// is unresolved, and not reported as a regression.
	noisy := fill(func(w, m string, i int) float64 {
		v := 100 + 0.1*float64(i)
		if w == "rmw_mix" && m == "txn_per_s" {
			v *= (1 - 2*tps.Bound) * (0.4 + 0.13*float64(i))
		}
		return v
	})
	out.Reset()
	if code := compareSamples(spec, steady, noisy, &out); code != 0 || strings.Count(out.String(), "unresolved") != 1 {
		t.Errorf("noisy row: exit %d, want 0 with one unresolved row:\n%s", code, out.String())
	}

	delete(noisy["edge_hit"], "setup_s")
	out.Reset()
	if code := compareSamples(spec, steady, noisy, &out); code == 0 || !strings.Contains(out.String(), "missing") {
		t.Errorf("missing row passed:\n%s", out.String())
	}
}
