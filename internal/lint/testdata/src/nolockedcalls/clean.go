package nolockedcalls

// sendSelectDefault cannot block: the send sits in a select with a
// default arm.
func sendSelectDefault(g *guarded) {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case g.ch <- 1:
	default:
	}
}

// fireUnlocked snapshots the hook under the lock and invokes it after
// releasing — the pattern the analyzer pushes callers toward.
func fireUnlocked(g *guarded) {
	g.mu.Lock()
	h := g.hook
	g.mu.Unlock()
	h("k")
}

// lockedHelper declares its precondition; its body is audited directly
// with the lock held, so callers are not charged for auditing it again.
//
//tcache:holds g
func lockedHelper(g *guarded) {
	_ = len(g.ch)
}

func usesHelper(g *guarded) {
	g.mu.Lock()
	defer g.mu.Unlock()
	lockedHelper(g)
}

// suppressed shows the escape hatch: a justified //lint:ignore.
func suppressed(g *guarded) {
	g.mu.Lock()
	defer g.mu.Unlock()
	//lint:ignore locks ch is buffered and drained by the owner, so this send cannot block
	g.ch <- 1
}
