package monitor

import "tcache/internal/kv"

// CheckSGT classifies a read-only transaction by explicit serialization
// graph testing [Bernstein 87]: it materializes the serialization graph —
// the chain of committed update transactions in their serialization
// (version) order, a read-from edge from each read version's writer to
// the read-only transaction T, and an anti-dependency edge from T to each
// read version's overwriter — and reports whether the graph remains
// acyclic, i.e. whether T can be placed in the serialization.
//
// It is equivalent to Classify's interval test
// (TestCheckSGTMatchesIntervalTest cross-checks the two), not to
// RecordReadOnly's exact test. It documents why the interval test is
// correct.
func (m *Monitor) CheckSGT(reads []Read) bool {
	m.mu.Lock()
	defer m.mu.Unlock()

	// Node ids: 0..n-1 are update transactions in serialization order;
	// node T is n.
	n := len(m.exact.updates)
	tNode := n
	adj := make([][]int, n+1)
	// Serialization backbone: each update precedes the next.
	for i := 0; i+1 < n; i++ {
		adj[i] = append(adj[i], i+1)
	}
	// Read-from and anti-dependency edges.
	for _, r := range m.lookupLocked(reads) {
		if w, ok := m.exact.find(r.ver); ok {
			adj[w] = append(adj[w], tNode) // writer(v) → T
		}
		if next, ok := m.nextLocked(r.id, r.ver); ok {
			if o, ok := m.exact.find(next.ver); ok {
				adj[tNode] = append(adj[tNode], o) // T → overwriter(v)
			}
		}
	}

	// The graph minus T is a chain (acyclic); any cycle must pass through
	// T. DFS from T looking for a path back to T.
	visited := make([]bool, n+1)
	stack := append([]int(nil), adj[tNode]...)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u == tNode {
			return false // cycle: not serializable
		}
		if visited[u] {
			continue
		}
		visited[u] = true
		stack = append(stack, adj[u]...)
	}
	return true
}

// HistoryLen returns the number of recorded versions of key.
func (m *Monitor) HistoryLen(key kv.Key) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	id, ok := m.ids[key]
	if !ok {
		return 0
	}
	return len(m.hist[id])
}
