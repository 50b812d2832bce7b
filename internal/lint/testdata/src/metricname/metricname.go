// Package metricname exercises the metricname analyzer: every
// Counter/Gauge/Histogram registration inside a //tcache:metric
// function must pass a lowercase_snake string constant, unique across
// the package's annotated functions.
package metricname

// Registry mimics the telemetry registry's registration surface.
type Registry struct{}

func (r *Registry) Counter(name string, read func() uint64) {}
func (r *Registry) Gauge(name string, read func() uint64)   {}
func (r *Registry) Histogram(name string, h *int)           {}

//tcache:metric
func registersBad(reg *Registry) {
	reg.Counter("UpperCase", nil) // want `registersBad: metric name "UpperCase" is not lowercase_snake`
	reg.Gauge("has-dash", nil)    // want `registersBad: metric name "has-dash" is not lowercase_snake`
	reg.Counter("dup_name", nil)
	reg.Counter("dup_name", nil) // want `registersBad: metric "dup_name" already registered`
}

//tcache:metric
func registersComputed(reg *Registry, prefix string) {
	reg.Counter(prefix+"_reads", nil) // want `registersComputed: Counter name must be a string constant`
}

// registersCross duplicates a name first registered by registersBad:
// uniqueness is per package, not per function, because annotated
// functions in one package conventionally feed the same registry.
//
//tcache:metric
func registersCross(reg *Registry) {
	reg.Gauge("dup_name", nil) // want `registersCross: metric "dup_name" already registered`
}

// taggedCounters declares counters for reflective registration: tags
// share the grammar and the namespace of explicit registrations.
type taggedCounters struct {
	Fine  uint64 `metric:"tagged_fine"`
	Upper uint64 `metric:"Tagged"`      // want `metric tag "Tagged" is not lowercase_snake`
	Again uint64 `metric:"tagged_fine"` // want `metric "tagged_fine" already registered`
	Other uint64 `json:"Whatever"`
}
