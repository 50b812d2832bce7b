package evict

// lru is exact least-recently-used over an intrusive doubly linked list
// with a sentinel root: root.next is the most recently used handle,
// root.prev the eviction candidate. Every operation is O(1) pointer
// splicing on nodes embedded in the cache's own entries — no allocation
// anywhere, which is what the warm-hit budget demands.
type lru struct {
	root Handle
	n    int
}

func newLRU() *lru {
	l := &lru{}
	l.root.prev = &l.root
	l.root.next = &l.root
	return l
}

func (l *lru) Len() int { return l.n }

// Add links h at the MRU position.
func (l *lru) Add(h *Handle) {
	l.pushFront(h)
	l.n++
}

// Touch splices h to the MRU position.
func (l *lru) Touch(h *Handle) {
	if l.root.next == h {
		return
	}
	l.unlink(h)
	l.pushFront(h)
}

// Remove unlinks h and marks it unlinked.
func (l *lru) Remove(h *Handle) {
	l.unlink(h)
	h.prev, h.next = nil, nil
	l.n--
}

// Evict unlinks and returns the LRU handle; exact LRU examines exactly
// one candidate.
func (l *lru) Evict() (*Handle, int) {
	h := l.root.prev
	if h == &l.root {
		return nil, 0
	}
	l.Remove(h)
	return h, 1
}

func (l *lru) pushFront(h *Handle) {
	h.prev = &l.root
	h.next = l.root.next
	h.prev.next = h
	h.next.prev = h
}

func (l *lru) unlink(h *Handle) {
	h.prev.next = h.next
	h.next.prev = h.prev
}
