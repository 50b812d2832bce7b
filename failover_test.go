package tcache_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"tcache"
	"tcache/internal/transport"
)

// failoverRig is a replicated DB tier over loopback: a durable primary
// and a warm standby replicating from it, both served over TCP.
type failoverRig struct {
	t           *testing.T
	primary     *tcache.DB
	standby     *tcache.DB
	paddr       string
	saddr       string
	stopPrimary func()
	standbyOff  context.CancelFunc
	standbyDone chan struct{}
}

func newFailoverRig(t *testing.T) *failoverRig {
	t.Helper()
	r := &failoverRig{t: t}
	var err error
	r.primary, err = tcache.OpenDurableDB(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.primary.Close() })
	r.paddr, r.stopPrimary, err = tcache.ServeDB(r.primary, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.stopPrimary)

	r.standby, err = tcache.OpenDurableDB(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.standby.Close() })
	// Role before the first request, as tdbd does.
	r.standby.Core().SetStandby(r.paddr)
	var stopS func()
	r.saddr, stopS, err = tcache.ServeDB(r.standby, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopS)

	sctx, cancel := context.WithCancel(context.Background())
	r.standbyOff = cancel
	r.standbyDone = make(chan struct{})
	go func() {
		defer close(r.standbyDone)
		transport.RunStandby(sctx, r.standby.Core(), transport.StandbyConfig{
			Primary: r.paddr, Name: r.saddr,
		})
	}()
	t.Cleanup(func() { cancel(); <-r.standbyDone })
	return r
}

// waitCaughtUp blocks until the standby's counter matches the primary's.
func (r *failoverRig) waitCaughtUp() {
	r.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r.standby.Core().VersionCounter() != r.primary.Core().VersionCounter() {
		if time.Now().After(deadline) {
			r.t.Fatalf("standby stuck at counter %d, primary at %d",
				r.standby.Core().VersionCounter(), r.primary.Core().VersionCounter())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDialFailover rides a client through a primary crash: a Remote
// dialed with both addresses keeps serving reads after the primary dies,
// redirects writes once the standby is promoted, and its invalidation
// subscription re-homes to the survivor — the edge's
// read-your-invalidations survives the failover.
func TestDialFailover(t *testing.T) {
	ctx := context.Background()
	rig := newFailoverRig(t)

	remote, err := tcache.Dial(ctx, rig.paddr+","+rig.saddr,
		tcache.WithDialRetry(3, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	// An edge subscription tracking invalidations across the failover.
	var (
		invMu   sync.Mutex
		invSeen = map[tcache.Key]tcache.Version{}
	)
	cancelSub, err := remote.Subscribe("edge", func(inv tcache.Invalidation) {
		invMu.Lock()
		if invSeen[inv.Key].Less(inv.Version) {
			invSeen[inv.Key] = inv.Version
		}
		invMu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancelSub()

	if err := remote.Update(ctx, func(tx *tcache.Tx) error {
		return tx.Set("k", tcache.Value("v1"))
	}); err != nil {
		t.Fatal(err)
	}
	rig.waitCaughtUp()

	// Writes against the standby's address redirect to the leader: a
	// second Remote dialed standby-first must still commit.
	sr, err := tcache.Dial(ctx, rig.saddr)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if err := sr.Update(ctx, func(tx *tcache.Tx) error {
		return tx.Set("k2", tcache.Value("via-redirect"))
	}); err != nil {
		t.Fatalf("write via standby did not redirect: %v", err)
	}
	rig.waitCaughtUp()

	// Kill the primary. Reads must fail over to the standby without an
	// error surfacing to the caller.
	rig.stopPrimary()
	item, ok, err := remote.ReadItem(ctx, "k")
	if err != nil || !ok || string(item.Value) != "v1" {
		t.Fatalf("read after primary death: %q ok=%v err=%v", item.Value, ok, err)
	}

	// Writes surface the crash (outcome unknown → no blind retry), then
	// succeed once the standby is promoted and the client re-targets it.
	status, err := remote.Status(ctx)
	if err != nil || status.Role != "standby" {
		t.Fatalf("status after failover = %+v, err=%v", status, err)
	}
	if _, err := rig.standby.Core().Promote(); err != nil {
		t.Fatal(err)
	}
	// The subscription re-homes on its own goroutine, and a node drops
	// the invalidations of commits made before a subscriber registers
	// there (a subscription gap, by design): wait for the survivor to
	// hold it before writing.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st, err := remote.Stats(ctx)
		if err == nil && st.Gauges["subscribers"] > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscription never re-homed to the survivor (stats err %v)", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		err = remote.Update(ctx, func(tx *tcache.Tx) error {
			return tx.Set("k", tcache.Value("v2"))
		})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("write never succeeded after promotion: %v", err)
		}
		if !errors.Is(err, tcache.ErrUnavailable) && !errors.Is(err, tcache.ErrNotPrimary) {
			t.Fatalf("unexpected write failure class during failover: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The subscription re-homed: the post-promotion write's invalidation
	// reaches the edge through the survivor.
	item, ok, err = remote.ReadItem(ctx, "k")
	if err != nil || !ok || string(item.Value) != "v2" {
		t.Fatalf("read after promotion: %q ok=%v err=%v", item.Value, ok, err)
	}
	waitFor := time.Now().Add(5 * time.Second)
	for {
		invMu.Lock()
		v := invSeen["k"]
		invMu.Unlock()
		if !v.Less(item.Version) {
			break
		}
		if time.Now().After(waitFor) {
			t.Fatalf("invalidation for k@%s never arrived after failover (saw %s)", item.Version, v)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDialRetryWaitsForLateServer starts the server after Dial begins:
// WithDialRetry must keep trying (with backoff) until the address comes
// up, and a cancelled context must end the attempts early.
func TestDialRetryWaitsForLateServer(t *testing.T) {
	ctx := context.Background()
	d := tcache.OpenDB()
	defer d.Close()

	// Reserve an address, then release it so Dial's first pass fails.
	addr, stop, err := tcache.ServeDB(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop()

	started := make(chan func(), 1)
	go func() {
		time.Sleep(150 * time.Millisecond)
		_, stop2, err := tcache.ServeDB(d, addr)
		if err != nil {
			t.Error(err)
			started <- func() {}
			return
		}
		started <- stop2
	}()
	remote, err := tcache.Dial(ctx, addr, tcache.WithDialRetry(10, 50*time.Millisecond))
	stop2 := <-started
	defer stop2()
	if err != nil {
		t.Fatalf("Dial with retry: %v", err)
	}
	remote.Close()

	// And ctx cancellation cuts the retry loop short.
	cctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	begin := time.Now()
	if _, err := tcache.Dial(cctx, "127.0.0.1:1", tcache.WithDialRetry(100, time.Second)); err == nil {
		t.Fatal("Dial to a dead port succeeded")
	}
	if took := time.Since(begin); took > 2*time.Second {
		t.Fatalf("cancelled Dial took %s", took)
	}
}
