package telemetry

import (
	"sync/atomic"
	"testing"
)

type taggedMetrics struct {
	Hits    atomic.Uint64 `metric:"hits"`
	Misses  atomic.Uint64 `metric:"misses"`
	scratch int
}

type taggedSnapshot struct {
	Extra  uint64
	Misses uint64
	Hits   uint64
}

func TestCounterSetDerivesRegistryAndSnapshot(t *testing.T) {
	var m taggedMetrics
	set := NewCounterSet(&m, taggedSnapshot{})
	m.Hits.Add(3)
	m.Misses.Add(5)

	var snap taggedSnapshot
	set.Fill(&snap)
	if snap != (taggedSnapshot{Hits: 3, Misses: 5}) {
		t.Fatalf("Fill = %+v", snap)
	}
	reg := NewRegistry()
	set.Register(reg)
	if got := reg.Snapshot().Counters; got["hits"] != 3 || got["misses"] != 5 || len(got) != 2 {
		t.Fatalf("registered counters = %v", got)
	}
}

func TestCounterSetStripedAddsTheStripesToTheField(t *testing.T) {
	var m taggedMetrics
	set := NewCounterSet(&m, taggedSnapshot{})
	stripes := []uint64{4, 6}
	set.Striped("hits", func() (n uint64) {
		for _, s := range stripes {
			n += s
		}
		return n
	})
	m.Hits.Add(1)
	m.Misses.Add(2)

	var snap taggedSnapshot
	set.Fill(&snap)
	if snap != (taggedSnapshot{Hits: 11, Misses: 2}) {
		t.Fatalf("Fill = %+v, want the field plus both stripes", snap)
	}
	reg := NewRegistry()
	set.Register(reg)
	stripes[0] = 5
	if got := reg.Snapshot().Counters["hits"]; got != 12 {
		t.Fatalf("registered hits = %d, want 12 (read at scrape time)", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("striping an undeclared counter was accepted")
		}
	}()
	set.Striped("nope", func() uint64 { return 0 })
}

func TestCounterSetRejectsUnsnapshottedCounter(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a tagged counter with no snapshot field was accepted")
		}
	}()
	var m struct {
		Orphan atomic.Uint64 `metric:"orphan"`
	}
	NewCounterSet(&m, taggedSnapshot{})
}

func TestSubSubtractsEveryField(t *testing.T) {
	after := taggedSnapshot{Extra: 10, Misses: 7, Hits: 100}
	before := taggedSnapshot{Extra: 4, Misses: 7, Hits: 1}
	if got, want := Sub(after, before), (taggedSnapshot{Extra: 6, Misses: 0, Hits: 99}); got != want {
		t.Fatalf("Sub = %+v, want %+v", got, want)
	}
	// A field that went down wraps like the unsigned subtraction it is.
	if got := Sub(before, after).Hits; got != ^uint64(0)-98 {
		t.Fatalf("Sub of a decreased field = %d, want 1-100 mod 2^64", got)
	}
}
