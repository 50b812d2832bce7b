package telemetry

import (
	"fmt"
	"sort"
	"sync"
)

// Kind classifies a registered metric for the exposition surfaces:
// counters are monotone totals, gauges are sampled instantaneous
// values, histograms are latency distributions.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// metric is one registry entry. Counters and gauges are sampled lazily
// through read — they wrap the tiers' existing atomic counters rather
// than duplicating them — while histograms are owned pointers sampled
// via Snapshot.
type metric struct {
	name string
	kind Kind
	read func() uint64
	hist HistogramSource
}

// HistogramSource is what the registry samples a histogram family from:
// a *Histogram or a *StripedHistogram.
type HistogramSource interface {
	Snapshot() HistogramSnapshot
}

// Registry is a named collection of counters, gauges, and histograms —
// the one aggregation point a process exposes. The daemons build one
// registry per process (core cache + db + WAL + server-local sources
// all register into it) and serve it via /metrics, OpStats, or both.
//
// Registration is cheap and happens at startup; Snapshot is the only
// read path and samples every source on call. Metric names must be
// lowercase_snake and unique within a registry — enforced here at
// registration (panic: a bad name is a programmer error, caught by the
// tests that build every daemon's registry long before production) so
// the exposition encoders can trust the namespace.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]struct{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

// ValidMetricName reports whether name is lowercase_snake: a lowercase
// letter followed by lowercase letters, digits, or underscores. The
// grammar deliberately excludes every separator the Prometheus encoder
// reserves.
func ValidMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c == '_' && i > 0:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

func (r *Registry) register(m metric) {
	if !ValidMetricName(m.name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q (want lowercase_snake)", m.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.names[m.name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric name %q", m.name))
	}
	r.names[m.name] = struct{}{}
	r.metrics = append(r.metrics, m)
}

// Counter registers a monotone counter sampled through read — wrap the
// existing atomic counter's Load, don't maintain a second count.
func (r *Registry) Counter(name string, read func() uint64) {
	r.register(metric{name: name, kind: KindCounter, read: read})
}

// Gauge registers an instantaneous value sampled through read.
func (r *Registry) Gauge(name string, read func() uint64) {
	r.register(metric{name: name, kind: KindGauge, read: read})
}

// Histogram registers h under name. A nil h registers an always-empty
// histogram so a metric family stays present (and scrapeable) even
// when the tier that fills it is disabled.
func (r *Registry) Histogram(name string, h HistogramSource) {
	if h == nil {
		h = (*Histogram)(nil)
	}
	r.register(metric{name: name, kind: KindHistogram, hist: h})
}

// Snapshot is a point-in-time view of a whole registry: every counter
// and gauge sampled, every histogram copied. Maps are keyed by metric
// name; a nil map means the registry had no metrics of that kind.
type Snapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]uint64
	Histograms map[string]HistogramSnapshot
}

// Merge adds other into s, name by name. Counters and histograms add
// exactly. Gauges add too, so a merged gauge is a fleet total
// (cache_resident_bytes summed over the nodes), not any one node's value.
func (s *Snapshot) Merge(other Snapshot) {
	s.Counters = addInto(s.Counters, other.Counters)
	s.Gauges = addInto(s.Gauges, other.Gauges)
	if s.Histograms == nil {
		s.Histograms = make(map[string]HistogramSnapshot, len(other.Histograms))
	}
	for name, h := range other.Histograms {
		sum := s.Histograms[name]
		sum.Merge(h)
		s.Histograms[name] = sum
	}
}

func addInto(dst, src map[string]uint64) map[string]uint64 {
	if dst == nil {
		dst = make(map[string]uint64, len(src))
	}
	for name, v := range src {
		dst[name] += v
	}
	return dst
}

// Snapshot samples every registered source. Sources are read outside
// any registry-wide critical section beyond the entry list copy, so a
// slow gauge cannot block registration or other scrapes.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	entries := make([]metric, len(r.metrics))
	copy(entries, r.metrics)
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]uint64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, m := range entries {
		switch m.kind {
		case KindCounter:
			s.Counters[m.name] = m.read()
		case KindGauge:
			s.Gauges[m.name] = m.read()
		case KindHistogram:
			s.Histograms[m.name] = m.hist.Snapshot()
		}
	}
	return s
}

// Names returns every registered metric name, sorted — the encoder
// tests use it to cross-check exposition completeness.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m.name)
	}
	sort.Strings(out)
	return out
}

// sortedKeys returns the sorted key set of a uint64-valued map —
// deterministic iteration for the encoders.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
