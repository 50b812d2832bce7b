// Package lockorder exercises the locks analyzer's ordering rules:
// class discovery from //tcache:lockclass tags, order checking against
// //tcache:lockorder relations, transitive acquisition summaries, and
// //tcache:holds preconditions. The class names mirror the real
// hierarchy (shard < stripe) so the testdata demonstrates the exact
// inversion the analyzer exists to catch: taking the stripe lock first
// and the shard lock second.
package lockorder

import "sync"

//tcache:lockorder shard < stripe

type cacheShard struct {
	mu sync.Mutex //tcache:lockclass shard
}

type txnStripe struct {
	mu sync.Mutex //tcache:lockclass stripe
}

// inverted acquires stripe before shard — the declared order is
// shard < stripe, so this is the canonical inversion.
func inverted(s *cacheShard, t *txnStripe) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.mu.Lock() // want `inverts the declared lock order "shard" < "stripe"`
	s.mu.Unlock()
}

// double acquires two locks of the same class; per-class locks must
// never nest (that is what stripes are for).
func double(a, b *cacheShard) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want `at most one lock of each kind may be held`
	b.mu.Unlock()
}

// lockShard is summarised as acquiring class shard.
func lockShard(s *cacheShard) {
	s.mu.Lock()
	defer s.mu.Unlock()
}

// viaCall inverts the order through a callee: the acquisition is
// attributed to the call site via lockShard's summary.
func viaCall(s *cacheShard, t *txnStripe) {
	t.mu.Lock()
	defer t.mu.Unlock()
	lockShard(s) // want `inverts the declared lock order "shard" < "stripe" \(via call to lockShard\)`
}

// mustHold declares a precondition instead of locking internally.
//
//tcache:holds shard
func mustHold(s *cacheShard) {}

func missingHold(s *cacheShard) {
	mustHold(s) // want `call to mustHold requires lock class "shard" held`
}
