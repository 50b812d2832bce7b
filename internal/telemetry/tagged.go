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
//
// A tier whose hottest counters would make every core write one cache
// line keeps those striped — plain integers beside locks it already
// takes — and declares the sum with Striped; the field stays the one
// declaration of the counter's name and snapshot slot.
type CounterSet struct{ counters []taggedCounter }

type taggedCounter struct {
	name  string
	load  func() uint64
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
		s.counters = append(s.counters, taggedCounter{name, c.Load, sf.Index[0]})
	}
	return s
}

// Striped declares that the counter registered as name is kept in
// stripes: its value is the tagged field plus sum(), which the tier
// computes over its stripes under their own locks. It panics on an
// unknown name.
func (s *CounterSet) Striped(name string, sum func() uint64) {
	for i := range s.counters {
		if c := &s.counters[i]; c.name == name {
			field := c.load
			c.load = func() uint64 { return field() + sum() }
			return
		}
	}
	panic(fmt.Sprintf("telemetry: no counter %q to stripe", name))
}

// Register registers every counter in the set into reg.
func (s *CounterSet) Register(reg *Registry) {
	for _, c := range s.counters {
		reg.Counter(c.name, c.load)
	}
}

// Fill loads every counter into its field of *snapshot (a pointer to
// the snapshot struct type the set was built with).
func (s *CounterSet) Fill(snapshot any) {
	v := reflect.ValueOf(snapshot).Elem()
	for _, c := range s.counters {
		v.Field(c.field).SetUint(c.load())
	}
}

// Sub returns after − before field by field, for a snapshot struct Fill
// writes: every field a uint64. Walking the type, not a list, is the
// point — a counter added to the declaration is subtracted here without
// an edit. A field that went down (a gauge such as a replication lag)
// wraps, as unsigned subtraction does. It panics on any other field
// kind.
func Sub[T any](after, before T) T {
	var out T
	va, vb, vo := reflect.ValueOf(after), reflect.ValueOf(before), reflect.ValueOf(&out).Elem()
	for i := 0; i < vo.NumField(); i++ {
		vo.Field(i).SetUint(va.Field(i).Uint() - vb.Field(i).Uint())
	}
	return out
}
