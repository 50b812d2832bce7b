package lock

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// refManager is a test-file copy of the map-based lock table the
// package had before it dropped owners: per-key holder maps, a reverse
// index of each owner's keys, and ReleaseAll. TestManagerMatchesReference
// replays seeded schedules against it and against Manager.
type refManager struct {
	mu     sync.Mutex
	locks  map[string]*refLockState
	held   map[uint64][]string
	closed bool
}

type refLockState struct {
	holders map[uint64]Mode
	queue   []*refWaiter
}

type refWaiter struct {
	owner uint64
	mode  Mode
	ready chan error
	done  bool
}

func newRefManager() *refManager {
	return &refManager{locks: make(map[string]*refLockState), held: make(map[uint64][]string)}
}

func (m *refManager) Acquire(ctx context.Context, owner uint64, key string, mode Mode) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	ls := m.locks[key]
	if ls == nil {
		ls = &refLockState{holders: make(map[uint64]Mode)}
		m.locks[key] = ls
	}
	if cur, ok := ls.holders[owner]; ok {
		m.mu.Unlock()
		if cur < mode {
			return fmt.Errorf("lock: owner %d holds %q in mode %s and cannot upgrade", owner, key, cur)
		}
		return nil
	}
	if len(ls.queue) == 0 && refCompatible(ls, mode) {
		m.grantLocked(ls, key, owner, mode)
		m.mu.Unlock()
		return nil
	}
	w := &refWaiter{owner: owner, mode: mode, ready: make(chan error, 1)}
	ls.queue = append(ls.queue, w)
	m.mu.Unlock()
	select {
	case err := <-w.ready:
		return err
	case <-ctx.Done():
		m.mu.Lock()
		if w.done {
			m.mu.Unlock()
			return <-w.ready
		}
		for i, q := range ls.queue {
			if q == w {
				ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
				break
			}
		}
		m.pumpLocked(ls, key)
		m.maybeGCLocked(key, ls)
		m.mu.Unlock()
		return ctx.Err()
	}
}

func (m *refManager) ReleaseAll(owner uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, key := range m.held[owner] {
		ls := m.locks[key]
		delete(ls.holders, owner)
		m.pumpLocked(ls, key)
		m.maybeGCLocked(key, ls)
	}
	delete(m.held, owner)
}

func (m *refManager) Waiting(key string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ls := m.locks[key]; ls != nil {
		return len(ls.queue)
	}
	return 0
}

func (m *refManager) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	for _, ls := range m.locks {
		for _, w := range ls.queue {
			if !w.done {
				w.done = true
				w.ready <- ErrClosed
			}
		}
		ls.queue = nil
	}
}

func refCompatible(ls *refLockState, mode Mode) bool {
	for _, hm := range ls.holders {
		if mode == Exclusive || hm == Exclusive {
			return false
		}
	}
	return true
}

func (m *refManager) grantLocked(ls *refLockState, key string, owner uint64, mode Mode) {
	ls.holders[owner] = mode
	m.held[owner] = append(m.held[owner], key)
}

func (m *refManager) pumpLocked(ls *refLockState, key string) {
	for len(ls.queue) > 0 && refCompatible(ls, ls.queue[0].mode) {
		w := ls.queue[0]
		ls.queue = ls.queue[1:]
		m.grantLocked(ls, key, w.owner, w.mode)
		w.done = true
		w.ready <- nil
	}
}

func (m *refManager) maybeGCLocked(key string, ls *refLockState) {
	if len(ls.holders) == 0 && len(ls.queue) == 0 {
		delete(m.locks, key)
	}
}

// table is what a schedule drives: the reference, or Manager behind
// the calls the database makes — it releases by key, in plan order,
// what the reference releases by owner.
type table interface {
	acquire(ctx context.Context, owner uint64, key string, mode Mode) error
	// release frees the keys owner acquired, in the order it acquired them.
	release(owner uint64, keys []keyMode)
	waiting(key string) int
	close()
}

type keyMode struct {
	key  string
	mode Mode
}

type refTable struct{ m *refManager }

func (r refTable) acquire(ctx context.Context, owner uint64, key string, mode Mode) error {
	return r.m.Acquire(ctx, owner, key, mode)
}
func (r refTable) release(owner uint64, _ []keyMode) { r.m.ReleaseAll(owner) }
func (r refTable) waiting(key string) int            { return r.m.Waiting(key) }
func (r refTable) close()                            { r.m.Close() }

type realTable struct{ m *Manager }

func (r realTable) acquire(ctx context.Context, owner uint64, key string, mode Mode) error {
	return r.m.Acquire(ctx, key, mode)
}
func (r realTable) release(_ uint64, keys []keyMode) {
	for _, km := range keys {
		r.m.Release(km.key, km.mode)
	}
}
func (r realTable) waiting(key string) int { return r.m.Waiting(key) }
func (r realTable) close()                 { r.m.Close() }

// run is one table under a schedule: the acquisitions in flight, and
// the outcomes they reported.
type run struct {
	t       table
	results chan outcome
	pending map[uint64]context.CancelFunc // owner → its in-flight Acquire's cancel
}

type outcome struct {
	owner uint64
	err   error
}

func newRun(t table) *run {
	return &run{t: t, results: make(chan outcome, 64), pending: make(map[uint64]context.CancelFunc)}
}

// queued is the number of requests queued on keys.
func (r *run) queued(keys []string) int {
	n := 0
	for _, k := range keys {
		n += r.t.waiting(k)
	}
	return n
}

// settle waits until every in-flight Acquire the table no longer
// queues has reported, and must (at least) has, and returns the reports
// in owner order.
func (r *run) settle(tb testing.TB, keys []string, must uint64) []outcome {
	tb.Helper()
	var got []outcome
	deadline := time.Now().Add(5 * time.Second)
	for len(r.pending) > r.queued(keys) || r.pending[must] != nil {
		select {
		case o := <-r.results:
			delete(r.pending, o.owner)
			got = append(got, o)
		default:
			if time.Now().After(deadline) {
				tb.Fatalf("%d acquisitions in flight, %d queued, after 5s", len(r.pending), r.queued(keys))
			}
			runtime.Gosched()
		}
	}
	sort.Slice(got, func(i, j int) bool { return got[i].owner < got[j].owner })
	return got
}

// start begins owner's Acquire of key and waits until it has either
// reported or queued.
func (r *run) start(owner uint64, key string, mode Mode) {
	ctx, cancel := context.WithCancel(context.Background())
	r.pending[owner] = cancel
	before := r.t.waiting(key)
	go func() { r.results <- outcome{owner, r.t.acquire(ctx, owner, key, mode)} }()
	for {
		select {
		case o := <-r.results:
			// Only the acquisition just started can report here: every
			// other one in flight is queued until the next release,
			// cancel or close. Put it back for settle.
			r.results <- o
			return
		default:
		}
		if r.t.waiting(key) > before {
			return
		}
		runtime.Gosched()
	}
}

// owner is one schedule participant: a plan of at most 4 keys in key
// order and how far it got. A stopped owner (cancelled, refused, or
// choosing to quit early) only releases what it holds; a done one has.
type owner struct {
	id       uint64
	plan     []keyMode
	acquired int
	waiting  bool
	stopped  bool
	done     bool
}

// TestManagerMatchesReference replays seeded schedules — owners locking
// up to 4 keys in key order with S/X modes, cancellations mid-wait,
// releases of whole plans and of acquired prefixes, and a Close —
// against Manager and refManager in lock step. After every step it
// compares what each table granted or refused, in owner order, and the
// queue length of every key.
func TestManagerMatchesReference(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e"}
	// seen counts the outcomes worth replaying: grants a release or a
	// withdrawal handed to a queued request, withdrawn waits, and waits
	// a Close failed.
	var seen struct{ handedOver, withdrawn, closedWaits int }
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref, got := newRun(refTable{newRefManager()}), newRun(realTable{NewManager()})
		var owners []*owner
		closed := false
		// step applies one action to both tables and compares what
		// they report; must is an owner whose Acquire has to report.
		step := func(desc string, must uint64, act func(r *run)) {
			act(ref)
			act(got)
			want, have := ref.settle(t, keys, must), got.settle(t, keys, must)
			same := len(want) == len(have)
			for i := 0; same && i < len(want); i++ {
				same = want[i].owner == have[i].owner && sameErr(want[i].err, have[i].err)
			}
			if !same {
				t.Fatalf("seed %d, %s: reference reported %v, manager %v", seed, desc, want, have)
			}
			for _, o := range want {
				ow := owners[o.owner-1]
				switch {
				case o.err == nil && !strings.HasPrefix(desc, fmt.Sprintf("owner %d acquires", o.owner)):
					seen.handedOver++
				case errors.Is(o.err, context.Canceled):
					seen.withdrawn++
				case errors.Is(o.err, ErrClosed) && desc == "close":
					seen.closedWaits++
				}
				ow.waiting = false
				if o.err == nil {
					ow.acquired++
				} else {
					ow.stopped = true
				}
			}
			for _, k := range keys {
				if w, h := ref.t.waiting(k), got.t.waiting(k); w != h {
					t.Fatalf("seed %d, %s: %d queued on %s in the reference, %d in the manager", seed, desc, w, k, h)
				}
			}
		}
		release := func(o *owner) {
			o.done = true
			if held := o.plan[:o.acquired]; len(held) > 0 {
				step(fmt.Sprintf("owner %d releases %v", o.id, held), 0, func(r *run) { r.t.release(o.id, held) })
			}
		}
		for n := 30 + rng.Intn(60); n > 0; n-- {
			var live []*owner
			for _, o := range owners {
				if !o.done {
					live = append(live, o)
				}
			}
			switch c := rng.Intn(20); {
			case c < 4 || len(live) == 0:
				o := &owner{id: uint64(len(owners) + 1)}
				for _, i := range rng.Perm(len(keys))[:1+rng.Intn(4)] {
					mode := Shared
					if rng.Intn(2) == 0 {
						mode = Exclusive
					}
					o.plan = append(o.plan, keyMode{keys[i], mode})
				}
				slices.SortFunc(o.plan, func(a, b keyMode) int { return strings.Compare(a.key, b.key) })
				owners = append(owners, o)
			case c == 19 && !closed && n < 20:
				closed = true
				step("close", 0, func(r *run) { r.t.close() })
			default:
				o := live[rng.Intn(len(live))]
				switch {
				case o.waiting && c < 8:
					step(fmt.Sprintf("owner %d cancels its wait on %s", o.id, o.plan[o.acquired].key), o.id,
						func(r *run) { r.pending[o.id]() })
				case o.waiting:
				case o.stopped || o.acquired == len(o.plan) || c < 6:
					release(o)
				default:
					km := o.plan[o.acquired]
					o.waiting = true
					step(fmt.Sprintf("owner %d acquires %s %s", o.id, km.key, km.mode), 0,
						func(r *run) { r.start(o.id, km.key, km.mode) })
				}
			}
		}
		// Every schedule ends in a Close, waiters or not, and the
		// holders release what they got.
		if !closed {
			step("close", 0, func(r *run) { r.t.close() })
		}
		for _, o := range owners {
			if !o.done {
				release(o)
			}
		}
	}
	if seen.handedOver < 300 || seen.withdrawn < 200 || seen.closedWaits < 200 {
		t.Fatalf("schedules too tame: %+v", seen)
	}
	t.Logf("%+v", seen)
}

// sameErr compares two Acquire outcomes: both nil, or the same sentinel.
func sameErr(a, b error) bool {
	switch {
	case a == nil || b == nil:
		return a == nil && b == nil
	case errors.Is(a, context.Canceled):
		return errors.Is(b, context.Canceled)
	default:
		return errors.Is(b, a)
	}
}
