package evict

import (
	"fmt"
	"testing"
)

type obj struct {
	name string
	h    Handle
}

func add(s *Shard, name string, cost uint64) *obj {
	o := &obj{name: name}
	s.Add(&o.h, o, cost)
	return o
}

func evictName(t *testing.T, s *Shard) string {
	t.Helper()
	v, scanned := s.Evict()
	if v == nil {
		t.Fatalf("Evict returned nil victim (scanned %d)", scanned)
	}
	if scanned < 1 {
		t.Fatalf("Evict scanned %d, want >= 1", scanned)
	}
	return v.(*obj).name
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{LRU, Clock, Cost} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if k, err := ParseKind(""); err != nil || k != LRU {
		t.Fatalf("ParseKind(\"\") = %v, %v; want LRU default", k, err)
	}
	if _, err := ParseKind("mru"); err == nil {
		t.Fatal("ParseKind(\"mru\") accepted an unknown policy")
	}
}

func TestZeroShardIsUnboundedNoop(t *testing.T) {
	var s Shard
	if s.Bounded() {
		t.Fatal("zero Shard reports Bounded")
	}
	o := &obj{name: "a"}
	// None of these may panic or link anything; the ledger still counts
	// the bytes, and a second Remove refunds nothing.
	s.Add(&o.h, o, 100)
	s.Touch(&o.h)
	if s.Used() != 100 || s.Len() != 0 {
		t.Fatalf("after Add: used=%d len=%d, want 100/0", s.Used(), s.Len())
	}
	s.Update(&o.h, 200)
	if s.Used() != 200 {
		t.Fatalf("after Update: used=%d, want 200", s.Used())
	}
	s.Remove(&o.h)
	s.Remove(&o.h)
	if !s.Admit("anything") {
		t.Fatal("unbounded shard rejected admission")
	}
	if s.Used() != 0 || s.NeedEvict() {
		t.Fatalf("zero Shard accounted bytes: used=%d", s.Used())
	}
	if v, _ := s.Evict(); v != nil {
		t.Fatalf("zero Shard evicted %v", v)
	}
}

func TestLRUOrderAndAccounting(t *testing.T) {
	s := NewShard(LRU, 100, false)
	a := add(&s, "a", 30)
	add(&s, "b", 30)
	add(&s, "c", 30)
	if got := s.Used(); got != 90 {
		t.Fatalf("Used = %d, want 90", got)
	}
	// Touch a: eviction order becomes b, c, a.
	s.Touch(&a.h)
	if got := evictName(t, &s); got != "b" {
		t.Fatalf("first eviction = %q, want b (LRU after touch)", got)
	}
	if got := evictName(t, &s); got != "c" {
		t.Fatalf("second eviction = %q, want c", got)
	}
	if got := evictName(t, &s); got != "a" {
		t.Fatalf("third eviction = %q, want a", got)
	}
	if s.Used() != 0 || s.Len() != 0 {
		t.Fatalf("after draining: used=%d len=%d", s.Used(), s.Len())
	}
	if v, scanned := s.Evict(); v != nil || scanned != 0 {
		t.Fatalf("empty Evict = %v, %d", v, scanned)
	}
}

func TestUpdateAdjustsUsedBytes(t *testing.T) {
	s := NewShard(LRU, 100, false)
	a := add(&s, "a", 40)
	s.Update(&a.h, 90)
	if got := s.Used(); got != 90 {
		t.Fatalf("Used after grow = %d, want 90", got)
	}
	s.Update(&a.h, 10)
	if got := s.Used(); got != 10 {
		t.Fatalf("Used after shrink = %d, want 10", got)
	}
	s.Remove(&a.h)
	if got := s.Used(); got != 0 {
		t.Fatalf("Used after remove = %d, want 0", got)
	}
	// Updating an unlinked handle must be a no-op, not an underflow.
	s.Update(&a.h, 500)
	if got := s.Used(); got != 0 {
		t.Fatalf("Used after unlinked update = %d, want 0", got)
	}
}

func TestRemoveIsIdempotent(t *testing.T) {
	s := NewShard(LRU, 100, false)
	a := add(&s, "a", 40)
	s.Remove(&a.h)
	s.Remove(&a.h) // second remove of an unlinked handle: no-op
	s.Touch(&a.h)  // touch of an unlinked handle: no-op
	if s.Used() != 0 || s.Len() != 0 {
		t.Fatalf("after double remove: used=%d len=%d", s.Used(), s.Len())
	}
}

func TestClockSecondChance(t *testing.T) {
	s := NewShard(Clock, 100, false)
	a := add(&s, "a", 30)
	add(&s, "b", 30)
	add(&s, "c", 30)
	// All were added with the reference bit set; one full sweep clears
	// them, so the first eviction is the oldest (a) after a full scan.
	// Touch a so it survives the second sweep too.
	s.Touch(&a.h)
	first := evictName(t, &s)
	if first == "a" {
		t.Fatalf("clock evicted the touched handle %q first", first)
	}
	second := evictName(t, &s)
	if second == "a" {
		t.Fatalf("clock evicted the touched handle %q second", second)
	}
	if got := evictName(t, &s); got != "a" {
		t.Fatalf("last eviction = %q, want a", got)
	}
}

func TestClockScanBounded(t *testing.T) {
	s := NewShard(Clock, 1000, false)
	for i := 0; i < 16; i++ {
		add(&s, fmt.Sprintf("k%d", i), 10)
	}
	_, scanned := s.Evict()
	if scanned < 1 || scanned > 2*16 {
		t.Fatalf("clock scanned %d handles for 16 entries", scanned)
	}
}

func TestCostEvictsLargeColdFirst(t *testing.T) {
	s := NewShard(Cost, 10000, false)
	blob := add(&s, "blob", 1000)
	var small []*obj
	for i := 0; i < 5; i++ {
		small = append(small, add(&s, fmt.Sprintf("s%d", i), 10))
	}
	// Keep the small entries hot; the blob goes stale.
	for range [20]int{} {
		for _, o := range small {
			s.Touch(&o.h)
		}
	}
	if got := evictName(t, &s); got != "blob" {
		t.Fatalf("cost policy evicted %q, want the cold blob", got)
	}
	_ = blob
}

func TestCostRotatesThroughShard(t *testing.T) {
	s := NewShard(Cost, 10000, false)
	for i := 0; i < 32; i++ {
		add(&s, fmt.Sprintf("k%d", i), 10)
	}
	names := map[string]bool{}
	for i := 0; i < 32; i++ {
		names[evictName(t, &s)] = true
	}
	if len(names) != 32 {
		t.Fatalf("cost policy evicted %d distinct entries out of 32", len(names))
	}
	if s.Len() != 0 || s.Used() != 0 {
		t.Fatalf("after draining: len=%d used=%d", s.Len(), s.Used())
	}
}

func TestDoorkeeperAdmitsOnSecondSight(t *testing.T) {
	s := NewShard(LRU, 100, true)
	if s.Admit("k") {
		t.Fatal("doorkeeper admitted a first sighting")
	}
	if !s.Admit("k") {
		t.Fatal("doorkeeper rejected a second sighting")
	}
	if !s.Admit("k") {
		t.Fatal("doorkeeper rejected a third sighting")
	}
}

func TestDoorkeeperResetsWindow(t *testing.T) {
	d := NewDoorkeeper()
	d.Seen("hot")
	// Exhaust the access window (one repeated key, so only its two bits
	// are set and the check below cannot be confused by saturation).
	for i := 0; i < doorResetEvery; i++ {
		d.Seen("filler")
	}
	if d.Seen("hot") {
		t.Fatal("doorkeeper remembered a key across a window reset")
	}
	if !d.Seen("hot") {
		t.Fatal("doorkeeper rejected a re-sighted key after reset")
	}
}

func TestNeedEvictBoundary(t *testing.T) {
	s := NewShard(LRU, 100, false)
	add(&s, "a", 100)
	if s.NeedEvict() {
		t.Fatal("NeedEvict at exactly the budget")
	}
	add(&s, "b", 1)
	if !s.NeedEvict() {
		t.Fatal("NeedEvict false while over budget")
	}
}

func TestPolicyLenTracksMembership(t *testing.T) {
	for _, k := range []Kind{LRU, Clock, Cost} {
		t.Run(k.String(), func(t *testing.T) {
			p := New(k)
			var hs []*obj
			for i := 0; i < 10; i++ {
				o := &obj{name: fmt.Sprintf("k%d", i)}
				o.h.obj = o
				o.h.cost = 1
				p.Add(&o.h)
				hs = append(hs, o)
			}
			if p.Len() != 10 {
				t.Fatalf("Len = %d, want 10", p.Len())
			}
			p.Remove(&hs[3].h)
			p.Remove(&hs[7].h)
			if p.Len() != 8 {
				t.Fatalf("Len after removes = %d, want 8", p.Len())
			}
			for i := 0; i < 8; i++ {
				if v, _ := p.Evict(); v == nil {
					t.Fatalf("Evict %d returned nil with %d left", i, p.Len())
				}
			}
			if v, _ := p.Evict(); v != nil {
				t.Fatalf("Evict on empty policy returned %v", v)
			}
		})
	}
}
