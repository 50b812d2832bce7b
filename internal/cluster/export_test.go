package cluster

import "tcache/internal/kv"

// HighWaterMarks returns the router's per-range high-water marks.
func (r *Router) HighWaterMarks() []kv.Version {
	out := make([]kv.Version, numRanges)
	for rg := range out {
		out[rg] = r.floorFor(rg)
	}
	return out
}
