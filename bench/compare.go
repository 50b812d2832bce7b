package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// samples is every value a result file holds for one (workload,
// end-to-end metric) pair, one per untraced run.
type samples map[string]map[string][]float64

func readSamples(path string) (samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(samples)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace != 0 || !r.Correct {
			continue // per-layer rows have no bound; a failed run is not a measurement
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise the bound has to be read against. One value has none.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// compareFiles prints one row per (end-to-end metric, workload): the
// base median, the new median, how much worse the new one is, and the
// bound from BENCHMARK.json. A row whose own run-to-run spread exceeds
// the bound is unresolved — neither a regression nor a pass. The exit
// code is non-zero if any row is past its bound or has no data.
func compareFiles(spec *benchSpec, basePath, newPath string, stdout, stderr io.Writer) int {
	base, err := readSamples(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "bench: -compare:", err)
		return 2
	}
	next, err := readSamples(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench: -compare:", err)
		return 2
	}
	return compareSamples(spec, base, next, stdout)
}

func compareSamples(spec *benchSpec, base, next samples, w io.Writer) int {
	fmt.Fprintf(w, "%-10s %-20s %4s %14s %8s %4s %14s %8s %9s %7s  %s\n",
		"workload", "metric", "n", "base median", "spread", "n", "new median", "spread", "worse by", "bound", "verdict")
	bad := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			b, n := base[wl.Name][m.Name], next[wl.Name][m.Name]
			if len(b) == 0 || len(n) == 0 {
				fmt.Fprintf(w, "%-10s %-20s %4d %14s %8s %4d %14s %8s %9s %7.3f  missing\n",
					wl.Name, m.Name, len(b), "-", "-", len(n), "-", "-", "-", m.Bound)
				bad++
				continue
			}
			bm, nm := median(b), median(n)
			bs, ns := spread(b), spread(n)
			worse := (nm - bm) / bm
			if m.Better == "higher" {
				worse = (bm - nm) / bm
			}
			verdict := "ok"
			switch {
			case bs > m.Bound || ns > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSION"
				bad++
			}
			fmt.Fprintf(w, "%-10s %-20s %4d %14.4f %7.2f%% %4d %14.4f %7.2f%% %+8.2f%% %6.1f%%  %s\n",
				wl.Name, m.Name, len(b), bm, 100*bs, len(n), nm, 100*ns, 100*worse, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
