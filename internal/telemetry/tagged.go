package telemetry

import (
	"fmt"
	"reflect"
	"sync/atomic"
)

// CounterSet is the counters of one tier, declared once: every
// atomic.Uint64 field of the tier's Metrics struct tagged
// `metric:"name"`. The set is built by one reflective walk at
// construction — never on a hot path, which keeps incrementing the
// struct's fields directly — and from it the tier derives both its
// registry registration and its plain-uint64 snapshot struct, so a
// counter added to the declaration shows up everywhere or fails loudly.
type CounterSet struct{ counters []taggedCounter }

type taggedCounter struct {
	name  string
	value *atomic.Uint64
	field int // the counter's field index in the snapshot struct
}

// NewCounterSet walks *metrics for tagged counters and binds each to
// the same-named uint64 field of snapshot's struct type. It panics on a
// tag on a non-counter field, or a counter with no snapshot field.
func NewCounterSet(metrics, snapshot any) *CounterSet {
	mv := reflect.ValueOf(metrics).Elem()
	s, snap := &CounterSet{}, reflect.TypeOf(snapshot)
	for i := 0; i < mv.NumField(); i++ {
		f := mv.Type().Field(i)
		name, ok := f.Tag.Lookup("metric")
		if !ok {
			continue
		}
		c, isCounter := mv.Field(i).Addr().Interface().(*atomic.Uint64)
		sf, hasSnap := snap.FieldByName(f.Name)
		if !isCounter || !hasSnap || sf.Type.Kind() != reflect.Uint64 {
			panic(fmt.Sprintf("telemetry: counter %s.%s (metric %q) must be an atomic.Uint64 with a uint64 field of the same name in %s",
				mv.Type(), f.Name, name, snap))
		}
		s.counters = append(s.counters, taggedCounter{name, c, sf.Index[0]})
	}
	return s
}

// Register registers every counter in the set into reg.
func (s *CounterSet) Register(reg *Registry) {
	for _, c := range s.counters {
		reg.Counter(c.name, c.value.Load)
	}
}

// Fill loads every counter into its field of *snapshot (a pointer to
// the snapshot struct type the set was built with).
func (s *CounterSet) Fill(snapshot any) {
	v := reflect.ValueOf(snapshot).Elem()
	for _, c := range s.counters {
		v.Field(c.field).SetUint(c.value.Load())
	}
}
