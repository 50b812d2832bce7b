package transport

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/kv"
)

// TestServerCloseAbortsBlockedUpdate drives an update into a lock wait
// held by an in-process transaction, then closes the server. Close must
// cancel the in-flight transaction (unblocking its lock wait) and return
// instead of hanging on wg.Wait.
func TestServerCloseAbortsBlockedUpdate(t *testing.T) {
	d := db.Open(db.Config{})
	t.Cleanup(func() { d.Close() })
	srv := NewDBServer(d, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialDB(bg, addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)

	hold := holdKey(t, d, "k")

	errc := make(chan error, 1)
	go func() {
		_, err := cli.ValidatedUpdate(bg, nil, []KeyValue{{Key: "k", Value: kv.Value("blocked")}})
		errc <- err
	}()
	waitQueued(t, hold, 1)

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("DBServer.Close hung on the blocked update")
	}
	if err := <-errc; err == nil {
		t.Fatal("blocked update succeeded despite server close")
	}
	// The cancelled transaction left no lock behind: once the hold ends,
	// an update of k commits.
	hold.Release()
	commitSoon(t, d, "k")
}

// TestClientCtxCancelledMidRoundTrip blocks an update behind a held lock
// and cancels the client context mid-round-trip. The call must return
// ctx.Err() promptly, and the client must transparently redial for the
// next call.
func TestClientCtxCancelledMidRoundTrip(t *testing.T) {
	d := db.Open(db.Config{})
	t.Cleanup(func() { d.Close() })
	srv := NewDBServer(d, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cli, err := DialDB(bg, addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)

	hold := holdKey(t, d, "k")

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := cli.ValidatedUpdate(ctx, nil, []KeyValue{{Key: "k", Value: kv.Value("blocked")}})
		errc <- err
	}()
	waitQueued(t, hold, 1)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled update = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled round trip never returned")
	}

	// The interrupted connection is discarded; the next call redials.
	hold.Release()
	if _, err := cli.ValidatedUpdate(bg, nil, []KeyValue{{Key: "k", Value: kv.Value("after")}}); err != nil {
		t.Fatalf("post-cancel update = %v", err)
	}
	item, ok, err := cli.ReadItem(bg, "k")
	if err != nil || !ok || string(item.Value) != "after" {
		t.Fatalf("ReadItem = %q, %v, %v", item.Value, ok, err)
	}
}

// TestClientCloseUnblocksStuckRoundTrip closes the client while a round
// trip with a background context is blocked server-side. Close must not
// wait for the exchange: it slams the socket, the blocked call errors
// out, and Close returns promptly.
func TestClientCloseUnblocksStuckRoundTrip(t *testing.T) {
	d := db.Open(db.Config{})
	t.Cleanup(func() { d.Close() })
	srv := NewDBServer(d, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cli, err := DialDB(bg, addr, 1)
	if err != nil {
		t.Fatal(err)
	}

	hold := holdKey(t, d, "k")

	errc := make(chan error, 1)
	go func() {
		_, err := cli.ValidatedUpdate(bg, nil, []KeyValue{{Key: "k", Value: kv.Value("blocked")}})
		errc <- err
	}()
	waitQueued(t, hold, 1)

	closed := make(chan struct{})
	go func() {
		cli.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("DBClient.Close hung behind a blocked round trip")
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("blocked update succeeded after client close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked round trip never returned after Close")
	}
	hold.Release()
	if _, _, err := cli.ReadItem(bg, "k"); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("read on closed client = %v, want ErrClientClosed", err)
	}
}

// TestSubscriptionResubscribesAfterServerRestart bounces the DB server
// under an active subscription. The stream must reattach automatically,
// invalidations sent after the reconnect must reach the cache, and the
// eq.1/eq.2 protection must hold across the gap: updates whose
// invalidations were lost during the outage are still detected through
// dependency lists.
func TestSubscriptionResubscribesAfterServerRestart(t *testing.T) {
	d := db.Open(db.Config{DepBound: 5})
	t.Cleanup(func() { d.Close() })
	srv := NewDBServer(d, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	cli, err := DialDB(bg, addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	cache, err := core.New(core.Config{Backend: cli, Strategy: core.StrategyAbort})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cache.Close)

	stop, err := SubscribeInvalidations(bg, addr, "edge-1", func(inv Invalidation) {
		cache.Invalidate(inv.Key, inv.Version)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)

	seed := func(keys ...kv.Key) {
		t.Helper()
		writes := make([]KeyValue, len(keys))
		for i, k := range keys {
			writes[i] = KeyValue{Key: k, Value: kv.Value("v-" + string(k))}
		}
		if _, err := cli.ValidatedUpdate(bg, nil, writes); err != nil {
			t.Fatal(err)
		}
	}
	seed("a")
	seed("b")
	for _, k := range []kv.Key{"a", "b"} {
		if _, err := cache.Get(bg, k); err != nil {
			t.Fatal(err)
		}
	}

	// Bounce the server: the subscription stream breaks.
	srv.Close()
	// Updates during the outage are impossible over the wire, but the DB
	// itself moves on: one transaction rewrites a and b; the cache hears
	// nothing (its subscription is down).
	var reads []kv.ObservedRead
	var writes []KeyValue
	for _, k := range []kv.Key{"a", "b"} {
		item, found := d.Get(k)
		reads = append(reads, kv.ObservedRead{Key: k, Version: item.Version, Found: found})
		writes = append(writes, KeyValue{Key: k, Value: kv.Value("torn-" + string(k))})
	}
	if _, err := d.CommitUpdate(bg, reads, writes); err != nil {
		t.Fatal(err)
	}

	// Restart on the same address; the subscription must reattach.
	srv2 := NewDBServer(d, t.Logf)
	var addr2 string
	for i := 0; ; i++ {
		addr2, err = srv2.Listen(addr)
		if err == nil {
			break
		}
		if i == 50 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	_ = addr2
	t.Cleanup(srv2.Close)

	// Consistency across the gap (eq.2 over the wire): evict a so the
	// next transactional read fetches a fresh copy whose dependency list
	// exposes the stale cached b.
	cache.Invalidate("a", kv.Version{Counter: 1 << 40})
	if _, err := cache.Read(bg, 1, "a", false); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Read(bg, 1, "b", true); !errors.Is(err, core.ErrTxnAborted) {
		t.Fatalf("torn read across outage = %v, want ErrTxnAborted", err)
	}

	// Liveness after reconnect: a post-restart update's invalidation
	// reaches the cache and refreshes it. The update is re-committed every
	// round: one that lands before the stream has reattached loses its
	// invalidation (the channel is lossy by design), so only an update
	// after the reconnect can prove the stream is live again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, uerr := cli.ValidatedUpdate(bg, nil, []KeyValue{{Key: "b", Value: kv.Value("fresh")}})
		val, err := cache.Get(bg, "b")
		if uerr == nil && err == nil && string(val) == "fresh" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("invalidation never arrived after resubscribe; update = %v, b = %q (%v)", uerr, val, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestResubscribeNotLockedOutByStaleName simulates the half-open-peer
// case: after the stream breaks, the server still holds a registration
// under the subscription's name (here squatted directly in the db). The
// reconnect loop must not be rejected forever by that corpse — reconnect
// attempts use an epoch-suffixed name.
func TestResubscribeNotLockedOutByStaleName(t *testing.T) {
	d := db.Open(db.Config{})
	t.Cleanup(func() { d.Close() })
	srv := NewDBServer(d, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan Invalidation, 16)
	stop, err := SubscribeInvalidations(bg, addr, "edge", func(inv Invalidation) { got <- inv })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)

	// Break the stream by bouncing the server, and squat the bare name so
	// a naive reconnect-with-same-name would be rejected forever.
	srv.Close()
	unsquat, err := d.Subscribe("edge", func(db.Invalidation) {})
	if err != nil {
		t.Fatal(err)
	}
	defer unsquat()

	srv2 := NewDBServer(d, t.Logf)
	for i := 0; ; i++ {
		if _, err = srv2.Listen(addr); err == nil {
			break
		}
		if i == 50 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Cleanup(srv2.Close)

	// The resubscribed stream must deliver new invalidations.
	deadline := time.Now().Add(10 * time.Second)
	cli, err := DialDB(bg, addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	for {
		if _, err := cli.ValidatedUpdate(bg, nil, []KeyValue{{Key: "k", Value: kv.Value("v")}}); err == nil {
			select {
			case inv := <-got:
				if inv.Key != "k" {
					t.Fatalf("invalidation for %q", inv.Key)
				}
				return
			case <-time.After(50 * time.Millisecond):
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("resubscribe locked out by stale same-name registration")
		}
	}
}

// TestSubGroupCloseWaitsAndRefuses: once its owner's ctx is cancelled,
// SubGroup.Close returns only after every stream in the group is torn
// down, and a Resubscribe after Close fails with ErrClientClosed
// without opening anything.
func TestSubGroupCloseWaitsAndRefuses(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	var g SubGroup
	var peers []net.Conn
	open := func(context.Context, string) (*InvStream, error) {
		c, peer := net.Pipe()
		peers = append(peers, peer)
		return &InvStream{c: c, fr: newFrameReader(c, nil)}, nil
	}
	for _, name := range []string{"a", "b"} {
		if _, err := g.Resubscribe(ctx, name, open, func(Invalidation) {}); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	g.Close()
	for i, p := range peers {
		if _, err := p.Write([]byte{0}); !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("stream %d after Close: peer write = %v, want io.ErrClosedPipe", i, err)
		}
	}
	if _, err := g.Resubscribe(bg, "c", open, func(Invalidation) {}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Resubscribe after Close = %v, want ErrClientClosed", err)
	}
	if len(peers) != 2 {
		t.Fatalf("%d streams opened, want 2", len(peers))
	}
}

// TestBatchReadsOverWire covers OpGetBatch (DBClient.ReadItems) and
// OpReadTxn (DBClient.ReadTxn): N keys, one round trip each.
func TestBatchReadsOverWire(t *testing.T) {
	s := newStack(t, core.StrategyRetry)
	keys := []kv.Key{"b1", "b2", "b3"}
	for _, k := range keys {
		if _, err := s.dbCli.ValidatedUpdate(bg, nil, []KeyValue{{Key: k, Value: kv.Value("v-" + string(k))}}); err != nil {
			t.Fatal(err)
		}
	}

	lookups, err := s.dbCli.ReadItems(bg, append(keys, "ghost"))
	if err != nil {
		t.Fatal(err)
	}
	if len(lookups) != 4 || !lookups[0].Found || lookups[3].Found {
		t.Fatalf("lookups = %+v", lookups)
	}
	if string(lookups[1].Item.Value) != "v-b2" {
		t.Fatalf("lookups[1] = %q", lookups[1].Item.Value)
	}

	vals, err := s.cli.ReadTxn(bg, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || string(vals[2]) != "v-b3" {
		t.Fatalf("ReadTxn = %q", vals)
	}
	if _, err := s.cli.ReadTxn(bg, []kv.Key{"ghost"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadTxn(ghost) = %v, want ErrNotFound", err)
	}
}

// TestReadTxnMissEndsOverWire: a read transaction that stops on a key
// found nowhere, mid-batch, ends with its request, aborted: no record is
// left open for a later request to finish.
func TestReadTxnMissEndsOverWire(t *testing.T) {
	s := newStack(t, core.StrategyRetry)
	for _, k := range []kv.Key{"a", "b"} {
		if _, err := s.dbCli.ValidatedUpdate(bg, nil, []KeyValue{{Key: k, Value: kv.Value("v")}}); err != nil {
			t.Fatal(err)
		}
	}
	before := s.cache.Metrics()
	if _, err := s.cli.ReadTxn(bg, []kv.Key{"a", "ghost", "b"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadTxn(a, ghost, b) = %v, want ErrNotFound", err)
	}
	m := s.cache.Metrics()
	if got := s.cache.ActiveTxns(); got != 0 {
		t.Fatalf("the transaction outlived its request: %d active", got)
	}
	if m.TxnsStarted-before.TxnsStarted != 1 || m.TxnsAborted-before.TxnsAborted != 1 || m.TxnsCommitted != before.TxnsCommitted {
		t.Fatalf("started +%d, aborted +%d, committed +%d; want +1, +1, +0",
			m.TxnsStarted-before.TxnsStarted, m.TxnsAborted-before.TxnsAborted, m.TxnsCommitted-before.TxnsCommitted)
	}
}
