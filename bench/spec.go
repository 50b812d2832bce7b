package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchSpec mirrors BENCHMARK.json: the declared workloads, metrics,
// units and regression bounds. The harness reads it rather than
// repeating it, and refuses to report a metric set that differs from it.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) workloadNames() []string {
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	return names
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func (s *benchSpec) endToEnd(name string) (metricSpec, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// checkEmitted verifies that the run reported exactly the metrics its
// pass declares, each with the declared unit.
func (s *benchSpec) checkEmitted(r *result) error {
	declared := s.EndToEnd
	if r.Trace == 1 {
		declared = s.PerLayer
	}
	var problems []string
	seen := make(map[string]bool, len(declared))
	for _, m := range declared {
		seen[m.Name] = true
		got, ok := r.Metrics[m.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+m.Name)
		case got.Unit != m.Unit:
			problems = append(problems, fmt.Sprintf("%s in %q, declared %q", m.Name, got.Unit, m.Unit))
		}
	}
	for name := range r.Metrics {
		if !seen[name] {
			problems = append(problems, "undeclared "+name)
		}
	}
	if len(problems) == 0 {
		return nil
	}
	sort.Strings(problems)
	return fmt.Errorf("metrics differ from BENCHMARK.json: %s", strings.Join(problems, "; "))
}
