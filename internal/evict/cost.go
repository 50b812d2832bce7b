package evict

// costPolicy is cost-aware sampled eviction: every handle carries a
// last-touch stamp in shard-local logical time (one uint64 store per
// warm hit — as cheap as Clock's bit), and eviction samples a window of
// candidates from a clock-style hand, evicting the worst
// bytes × staleness score. The effect the plain recency policies can't
// express: a 1MB blob that has not been touched for a while is worth a
// thousand hot 1KB entries, and goes first.
type costPolicy struct {
	root Handle  // ring sentinel
	hand *Handle // sampling window start
	n    int
	now  uint64 // shard-local logical clock; bumped per Add/Touch
}

// costSample is the eviction sampling window. 8 keeps the scan short
// and cache-resident while approximating a global worst-score choice
// (the same regime sampled-LFU caches run in).
const costSample = 8

func newCost() *costPolicy {
	p := &costPolicy{}
	p.root.prev = &p.root
	p.root.next = &p.root
	p.hand = &p.root
	return p
}

func (p *costPolicy) Len() int { return p.n }

// Add links h behind the hand with a fresh stamp.
func (p *costPolicy) Add(h *Handle) {
	p.now++
	h.tick = p.now
	h.prev = p.hand.prev
	h.next = p.hand
	h.prev.next = h
	h.next.prev = h
	p.n++
}

// Touch stamps the handle with the current logical time.
func (p *costPolicy) Touch(h *Handle) {
	p.now++
	h.tick = p.now
}

// Remove unlinks h, stepping the hand off it first.
func (p *costPolicy) Remove(h *Handle) {
	if p.hand == h {
		p.hand = h.next
	}
	h.prev.next = h.next
	h.next.prev = h.prev
	h.prev, h.next = nil, nil
	p.n--
}

// Evict samples up to costSample handles from the hand and evicts the
// one with the highest cost × (age+1) score, advancing the hand past
// the sampled window so successive evictions rotate through the shard.
func (p *costPolicy) Evict() (*Handle, int) {
	if p.n == 0 {
		return nil, 0
	}
	var (
		worst      *Handle
		worstScore float64
		scanned    int
	)
	h := p.hand
	for scanned < costSample && scanned < p.n {
		if h == &p.root {
			h = h.next
			continue
		}
		age := p.now - h.tick + 1
		score := float64(h.cost) * float64(age)
		if worst == nil || score > worstScore {
			worst, worstScore = h, score
		}
		h = h.next
		scanned++
	}
	p.hand = h
	p.Remove(worst)
	return worst, scanned
}
