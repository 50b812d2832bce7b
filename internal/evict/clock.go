package evict

// clockPolicy is the classic second-chance ring. Handles sit on a
// circular list with a sentinel; the hand sweeps it in insertion order.
// The property that earns it a slot next to exact LRU: a warm hit is a
// single bool store on the entry's own handle — no list splice, no
// pointer writes to shared list heads — so back-to-back hits on a
// contended shard dirty one cache line per entry instead of fighting
// over the list head. Eviction pays instead: the hand clears reference
// bits until it finds a cold handle.
type clockPolicy struct {
	root Handle  // ring sentinel
	hand *Handle // next handle the sweep examines
	n    int
}

func newClock() *clockPolicy {
	c := &clockPolicy{}
	c.root.prev = &c.root
	c.root.next = &c.root
	c.hand = &c.root
	return c
}

func (c *clockPolicy) Len() int { return c.n }

// Add links h just behind the hand — the position a full sweep reaches
// last — with its reference bit clear: a brand-new entry earns its
// second chance by being touched, not by arriving, which is what makes
// the ring scan-resistant when an insert burst triggers eviction.
func (c *clockPolicy) Add(h *Handle) {
	h.ref = false
	h.prev = c.hand.prev
	h.next = c.hand
	h.prev.next = h
	h.next.prev = h
	c.n++
}

// Touch grants the second chance: one store, no splice.
func (c *clockPolicy) Touch(h *Handle) {
	h.ref = true
}

// Remove unlinks h, stepping the hand off it first.
func (c *clockPolicy) Remove(h *Handle) {
	if c.hand == h {
		c.hand = h.next
	}
	h.prev.next = h.next
	h.next.prev = h.prev
	h.prev, h.next = nil, nil
	c.n--
}

// Evict sweeps the hand: referenced handles lose their bit and survive,
// the first unreferenced handle is evicted. Bounded by two revolutions
// (the first clears every bit), so scanned ≤ 2·Len.
func (c *clockPolicy) Evict() (*Handle, int) {
	if c.n == 0 {
		return nil, 0
	}
	scanned := 0
	h := c.hand
	for {
		if h == &c.root {
			h = h.next
			continue
		}
		scanned++
		if h.ref {
			h.ref = false
			h = h.next
			continue
		}
		c.hand = h.next
		c.Remove(h)
		return h, scanned
	}
}
