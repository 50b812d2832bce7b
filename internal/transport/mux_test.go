package transport

// Failure-mode tests for the multiplexed client: concurrent requests
// sharing one connection, cancellation abandoning a demux slot without
// killing the connection, server death with several slots pending, the
// handshake version gate, and frame-boundary resynchronization on a
// connection that carried garbage — run them with -race; the mux
// internals are exactly the kind of code that rots without it.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcache/internal/db"
	"tcache/internal/kv"
	"tcache/internal/telemetry"
)

// connCount reports how many live connections the DB server tracks.
func (s *DBServer) connCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// TestMuxCancelledRequestDoesNotKillConnection runs two requests on ONE
// connection: the first (an update) blocks server-side behind a held
// lock and is then ctx-cancelled; the second must complete on the same
// connection, both while the first is still blocked and after its
// cancellation — no redial, no poisoned socket.
func TestMuxCancelledRequestDoesNotKillConnection(t *testing.T) {
	d := db.Open(db.Config{})
	t.Cleanup(func() { d.Close() })
	srv := NewDBServer(d, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cli, err := DialDB(bg, addr, 1) // one connection: everything multiplexes
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)

	if _, err := cli.ValidatedUpdate(bg, nil, []KeyValue{{Key: "k", Value: kv.Value("v0")}}); err != nil {
		t.Fatal(err)
	}

	hold := holdKey(t, d, "k")

	ctx, cancel := context.WithCancel(context.Background())
	blocked := make(chan error, 1)
	go func() {
		_, err := cli.ValidatedUpdate(ctx, nil, []KeyValue{{Key: "k", Value: kv.Value("blocked")}})
		blocked <- err
	}()
	waitQueued(t, hold, 1)

	// A read multiplexed behind the blocked update completes immediately.
	if item, ok, err := cli.ReadItem(bg, "k"); err != nil || !ok || string(item.Value) != "v0" {
		t.Fatalf("read during blocked update = %q, %v, %v", item.Value, ok, err)
	}

	cancel()
	select {
	case err := <-blocked:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled update = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled round trip never returned")
	}

	// The connection survived the cancellation: further reads work and
	// the server still tracks exactly one request/response connection.
	if _, ok, err := cli.ReadItem(bg, "k"); err != nil || !ok {
		t.Fatalf("read after cancel = %v, %v", ok, err)
	}
	if n := srv.connCount(); n != 1 {
		t.Fatalf("server sees %d connections, want 1 (no redial after cancel)", n)
	}
	hold.Release()
	commitSoon(t, d, "k")
}

// TestServerCloseFailsAllPendingSlots parks three concurrent updates on
// one multiplexed connection behind a held lock, then closes the server:
// every pending demux slot must settle with an error promptly.
func TestServerCloseFailsAllPendingSlots(t *testing.T) {
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

	const pending = 3
	errc := make(chan error, pending)
	for i := 0; i < pending; i++ {
		go func() {
			_, err := cli.ValidatedUpdate(bg, nil, []KeyValue{{Key: "k", Value: kv.Value("blocked")}})
			errc <- err
		}()
	}
	waitQueued(t, hold, pending) // all three are in the demux table

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("server Close hung behind pending requests")
	}
	for i := 0; i < pending; i++ {
		select {
		case err := <-errc:
			if err == nil {
				t.Fatal("blocked update succeeded despite server close")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("pending slot %d never settled after server close", i)
		}
	}
	hold.Release()
	commitSoon(t, d, "k")
}

// TestHandshakeVersionMismatch: a client facing a newer server gets a
// descriptive error naming both versions. (The server's side of the
// gate is TestServerSkeleton's.)
func TestHandshakeVersionMismatch(t *testing.T) {
	// Fake "future" server, one version ahead.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, handshakeSize)
		if _, err := io.ReadFull(c, buf); err != nil {
			return
		}
		hs := handshakeBytes()
		hs[4] = ProtocolVersion + 1 // future version
		c.Write(hs[:])
	}()
	_, err = DialDB(bg, ln.Addr().String(), 1)
	if err == nil {
		t.Fatalf("dial against a v%d server succeeded", ProtocolVersion+1)
	}
	var vm *VersionMismatchError
	if !errors.As(err, &vm) {
		t.Fatalf("err = %v, want VersionMismatchError", err)
	}
	if vm.Local != ProtocolVersion || vm.Peer != ProtocolVersion+1 {
		t.Fatalf("mismatch versions = local %d peer %d", vm.Local, vm.Peer)
	}
	if !strings.Contains(err.Error(), "version mismatch") {
		t.Fatalf("error not descriptive: %q", err)
	}
}

// TestStaleConnResyncOverWire is the end-to-end frame-boundary recovery
// demonstration: a raw client handshakes, spews garbage (a half-open
// peer's leftovers), and then sends a well-formed ping frame. The server
// resynchronizes at the frame boundary and answers the ping.
func TestStaleConnResyncOverWire(t *testing.T) {
	d := db.Open(db.Config{})
	t.Cleanup(func() { d.Close() })
	srv := NewDBServer(d, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hs := handshakeBytes()
	if _, err := c.Write(hs[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := readHandshake(c); err != nil {
		t.Fatal(err)
	}

	// Garbage first — a torn frame tail from a previous life.
	if _, err := c.Write([]byte("torn frame debris \x00\x01\x02 not a boundary")); err != nil {
		t.Fatal(err)
	}
	// Then a valid ping frame.
	var frame bytes.Buffer
	req := Request{Op: OpPing}
	if err := writeRequestFrame(&frame, nil, 42, &req); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(frame.Bytes()); err != nil {
		t.Fatal(err)
	}

	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr := newFrameReader(c, nil)
	typ, id, payload, err := fr.Read()
	if err != nil {
		t.Fatalf("no response after resync: %v", err)
	}
	if typ != frameResponse || id != 42 {
		t.Fatalf("response frame = (%d, %d)", typ, id)
	}
	resp, err := decodeResponse(payload)
	if err != nil || resp.Code != CodeOK {
		t.Fatalf("ping after garbage = %+v, %v", resp, err)
	}
}

// TestMuxSharedConnectionConcurrency hammers one connection from many
// goroutines mixing reads, batch reads, and updates; everything must
// demultiplex to its caller (values match keys) with no cross-delivery.
func TestMuxSharedConnectionConcurrency(t *testing.T) {
	d := db.Open(db.Config{DepBound: 5})
	t.Cleanup(func() { d.Close() })
	srv := NewDBServer(d, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cli, err := DialDB(bg, addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)

	keys := make([]kv.Key, 8)
	for i := range keys {
		keys[i] = kv.Key(string(rune('a' + i)))
		if _, err := cli.ValidatedUpdate(bg, nil, []KeyValue{{Key: keys[i], Value: kv.Value("v-" + string(keys[i]))}}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := keys[(g+i)%len(keys)]
				switch i % 3 {
				case 0:
					item, ok, err := cli.ReadItem(bg, k)
					if err != nil || !ok {
						t.Errorf("ReadItem(%s) = %v, %v", k, ok, err)
						return
					}
					if want := "v-" + string(k); string(item.Value) != want {
						t.Errorf("cross-delivered response: ReadItem(%s) = %q, want %q", k, item.Value, want)
						return
					}
				case 1:
					lookups, err := cli.ReadItems(bg, keys[:4])
					if err != nil || len(lookups) != 4 {
						t.Errorf("ReadItems = %d, %v", len(lookups), err)
						return
					}
					for j, lu := range lookups {
						if want := "v-" + string(keys[j]); string(lu.Item.Value) != want {
							t.Errorf("cross-delivered batch entry %d = %q, want %q", j, lu.Item.Value, want)
							return
						}
					}
				default:
					if err := cli.Ping(bg); err != nil {
						t.Errorf("ping: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestInvalidationBatchCoalescing commits an update writing many keys
// and verifies every invalidation reaches the subscriber — the DB server
// flushes them as batched frames, and nothing is lost or reordered
// within the batch.
func TestInvalidationBatchCoalescing(t *testing.T) {
	d := db.Open(db.Config{})
	t.Cleanup(func() { d.Close() })
	srv := NewDBServer(d, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	var mu sync.Mutex
	var got []Invalidation
	stop, err := SubscribeInvalidations(bg, addr, "batch-edge", func(inv Invalidation) {
		mu.Lock()
		got = append(got, inv)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)

	cli, err := DialDB(bg, addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)

	const n = 32
	writes := make([]KeyValue, n)
	for i := range writes {
		writes[i] = KeyValue{Key: kv.Key(string(rune('A' + i))), Value: kv.Value("v")}
	}
	if _, err := cli.ValidatedUpdate(bg, nil, writes); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		count := len(got)
		mu.Unlock()
		if count == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d/%d invalidations", count, n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, inv := range got {
		if want := kv.Key(string(rune('A' + i))); inv.Key != want {
			t.Fatalf("invalidation %d = %q, want %q (reordered within batch)", i, inv.Key, want)
		}
	}
}

// TestOversizedRequestRejected sends a request whose encoding exceeds
// the frame payload cap: the client must reject it locally with
// ErrFrameTooLarge — never write a frame the peer would have to treat
// as garbage — and the connection must remain usable.
func TestOversizedRequestRejected(t *testing.T) {
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

	huge := make(kv.Value, maxFramePayload+1)
	if _, err := cli.ValidatedUpdate(bg, nil, []KeyValue{{Key: "k", Value: huge}}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized update = %v, want ErrFrameTooLarge", err)
	}
	// The connection was never poisoned: ordinary traffic still works.
	if err := cli.Ping(bg); err != nil {
		t.Fatalf("ping after oversized reject = %v", err)
	}
	if n := srv.connCount(); n != 1 {
		t.Fatalf("server sees %d connections, want 1", n)
	}
}

// TestIdempotentRetryAfterServerRestart bounces the server under a
// client whose pooled connections all went stale: the next idempotent
// read must succeed transparently via the guaranteed-fresh redial.
func TestIdempotentRetryAfterServerRestart(t *testing.T) {
	d := db.Open(db.Config{})
	t.Cleanup(func() { d.Close() })
	srv := NewDBServer(d, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialDB(bg, addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	if _, err := cli.ValidatedUpdate(bg, nil, []KeyValue{{Key: "k", Value: kv.Value("v")}}); err != nil {
		t.Fatal(err)
	}
	// Warm the second slot too, so both connections are established and
	// will both be stale after the bounce.
	if _, _, err := cli.ReadItem(bg, "k"); err != nil {
		t.Fatal(err)
	}

	srv.Close()
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

	// Every pooled connection is now half-dead; the reads must still
	// succeed without surfacing the staleness.
	for i := 0; i < 4; i++ {
		if item, ok, err := cli.ReadItem(bg, "k"); err != nil || !ok || string(item.Value) != "v" {
			t.Fatalf("read %d after restart = %q, %v, %v", i, item.Value, ok, err)
		}
	}
}

// TestInvalidationBacklogChunked lowers the per-frame byte cap and
// pushes a backlog big enough to need several frames: every invalidation
// must still arrive, in order — the flush splits instead of failing with
// an oversized frame and flapping the subscription.
func TestInvalidationBacklogChunked(t *testing.T) {
	old := maxInvalidationFrameBytes
	maxInvalidationFrameBytes = 256
	t.Cleanup(func() { maxInvalidationFrameBytes = old })

	d := db.Open(db.Config{})
	t.Cleanup(func() { d.Close() })
	srv := NewDBServer(d, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	var mu sync.Mutex
	var got []Invalidation
	stop, err := SubscribeInvalidations(bg, addr, "chunk-edge", func(inv Invalidation) {
		mu.Lock()
		got = append(got, inv)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)

	cli, err := DialDB(bg, addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)

	const n = 64
	writes := make([]KeyValue, n)
	for i := range writes {
		writes[i] = KeyValue{Key: kv.Key(fmt.Sprintf("chunk-key-with-some-length-%03d", i)), Value: kv.Value("v")}
	}
	if _, err := cli.ValidatedUpdate(bg, nil, writes); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		count := len(got)
		mu.Unlock()
		if count == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d/%d invalidations across chunked frames", count, n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, inv := range got {
		if want := kv.Key(fmt.Sprintf("chunk-key-with-some-length-%03d", i)); inv.Key != want {
			t.Fatalf("invalidation %d = %q, want %q", i, inv.Key, want)
		}
	}
}

// rawServer accepts connections, completes the handshake, and hands each
// one to serve with its accept order: a peer the tests script frame by
// frame.
func rawServer(t *testing.T, serve func(n int, p rawPeer)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for n := 0; ; n++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(n int) {
				defer c.Close()
				br := bufio.NewReader(c)
				if serverHandshake(c, br) == nil {
					serve(n, rawPeer{c, newFrameReader(br, nil)})
				}
			}(n)
		}
	}()
	return ln.Addr().String()
}

// waitUntil polls cond, failing the test if it stays false for 5 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// holdKey parks every update of key on d behind a held lock until the
// returned hold is released (see db.KeyHold).
func holdKey(t *testing.T, d *db.DB, key kv.Key) *db.KeyHold {
	t.Helper()
	h, err := d.HoldKey(bg, key)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// waitQueued returns once n updates wait behind h.
func waitQueued(t *testing.T, h *db.KeyHold, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	if err := h.Queued(ctx, n); err != nil {
		t.Fatalf("%d updates never queued behind the held lock: %v", n, err)
	}
}

// commitSoon commits a write of key directly on d, failing the test if
// the key's lock is not free within 5 s: an update the test abandoned
// must not have left it held.
func commitSoon(t *testing.T, d *db.DB, key kv.Key) {
	t.Helper()
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	if _, err := d.CommitUpdate(ctx, nil, []KeyValue{{Key: key, Value: kv.Value("after")}}); err != nil {
		t.Fatalf("commit of %s after the hold = %v", key, err)
	}
}

// TestMuxConcurrentFramesArriveWhole: callers write their own frames
// now, so sixteen of them pushing frames of every size up to 4 KiB
// through ONE connection must still put only whole frames on the wire —
// the peer never has to resync and every payload decodes — and each
// reply, sent back out of order, must reach the caller that asked.
func TestMuxConcurrentFramesArriveWhole(t *testing.T) {
	const callers, frames = 16, 50
	type tally struct{ served, resyncs int }
	done := make(chan tally, 1)
	addr := rawServer(t, func(_ int, p rawPeer) {
		var (
			got     tally
			writeMu sync.Mutex
		)
		defer func() { done <- got }()
		for {
			typ, id, payload, err := p.fr.Read()
			if err != nil {
				got.resyncs = p.fr.Resyncs
				return
			}
			req, err := decodeRequest(payload)
			if typ != frameRequest || err != nil || req.Op != OpGet {
				t.Errorf("frame %d: type %d, request %+v, decode error %v", id, typ, req, err)
				return
			}
			got.served++
			go func() { // off the read loop: replies overtake one another
				resp := Response{Code: CodeOK, Item: kv.Item{Value: kv.Value(req.Key)}}
				_ = writeResponseFrame(p, &writeMu, id, &resp) // a failed write shows as a caller's error
			}()
		}
	})
	cli, err := DialDB(bg, addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				key := kv.Key(fmt.Sprintf("%d/%d/%s", g, i, strings.Repeat("k", (g*997+i*131)%4096)))
				item, ok, err := cli.ReadItem(bg, key)
				if err != nil || !ok || kv.Key(item.Value) != key {
					t.Errorf("caller %d frame %d: got %d bytes, %v, %v; want its own %d-byte key back", g, i, len(item.Value), ok, err, len(key))
					return
				}
			}
		}()
	}
	wg.Wait()
	cli.Close()
	select {
	case got := <-done:
		if got.served != callers*frames || got.resyncs != 0 {
			t.Fatalf("peer decoded %d frames with %d resyncs, want %d and 0", got.served, got.resyncs, callers*frames)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer never saw the connection close")
	}
}

// TestMuxCancelWhileWriteSideHeld: a caller queued behind another
// caller's frame write gives up the moment its ctx is cancelled, leaves
// no pending slot behind, and the connection — which it never touched —
// keeps serving.
func TestMuxCancelWhileWriteSideHeld(t *testing.T) {
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
	cn := cli.slots[0].cn
	pending := func() int {
		cn.mu.Lock()
		defer cn.mu.Unlock()
		return len(cn.pending)
	}

	cn.wlock <- struct{}{} // another caller is mid-frame
	ctx, cancel := context.WithCancel(bg)
	errc := make(chan error, 1)
	go func() {
		_, _, err := cli.ReadItem(ctx, "k")
		errc <- err
	}()
	waitUntil(t, "the read to queue for the write side", func() bool { return pending() == 1 })
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled while queued = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a caller queued for the write side ignored its ctx")
	}
	if n := pending(); n != 0 {
		t.Fatalf("%d pending slots after the cancel, want 0", n)
	}
	<-cn.wlock // the frame in progress completes

	if err := cli.Ping(bg); err != nil {
		t.Fatalf("ping after the cancel = %v", err)
	}
	if n := srv.connCount(); n != 1 {
		t.Fatalf("server sees %d connections, want 1 (no redial after cancel)", n)
	}
}

// TestPipelinedStaleConnRetriedOnce is TestStaleConnResyncOverWire's
// sibling on the client side: a connection that died without the client
// noticing (the peer drops it on its first frame, as a restarted server's
// half-open socket would) takes a pipelined batch read; Wait must carry
// it into the redial ladder and get the answer from exactly one fresh
// dial, which then serves the next call too.
func TestPipelinedStaleConnRetriedOnce(t *testing.T) {
	var conns, requests atomic.Int64
	addr := rawServer(t, func(n int, p rawPeer) {
		conns.Add(1)
		for {
			_, id, payload, err := p.fr.Read()
			if err != nil {
				return
			}
			requests.Add(1)
			if n == 0 {
				return // the stale connection: dies on use, answers nothing
			}
			req, err := decodeRequest(payload)
			if err != nil {
				t.Error(err)
				return
			}
			resp := Response{Code: CodeOK, Batch: make([]kv.Lookup, len(req.Keys))}
			for i, k := range req.Keys {
				resp.Batch[i] = kv.Lookup{Found: true, Item: kv.Item{Value: kv.Value(k)}}
			}
			if err := writeResponseFrame(p, nil, id, &resp); err != nil {
				return
			}
		}
	})
	cli, err := DialDB(bg, addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	h := &telemetry.Histogram{}
	cli.SetRoundTripHistogram(h)

	keys := []kv.Key{"a", "b", "c"}
	for call, want := range []struct{ conns, requests int64 }{{2, 2}, {2, 3}} {
		var b BatchRead
		cli.StartReadItemsFloor(bg, &b, keys, kv.Version{})
		lookups, err := b.Wait(bg)
		if err != nil || len(lookups) != len(keys) {
			t.Fatalf("call %d: pipelined read = %v, %v", call, lookups, err)
		}
		for i, lu := range lookups {
			if !lu.Found || kv.Key(lu.Item.Value) != keys[i] {
				t.Fatalf("call %d: lookup %d = %+v, want key %q echoed", call, i, lu, keys[i])
			}
		}
		if c, r := conns.Load(), requests.Load(); c != want.conns || r != want.requests {
			t.Fatalf("call %d: peer saw %d connections and %d request frames, want %d and %d", call, c, r, want.conns, want.requests)
		}
	}
	if snap := h.Snapshot(); snap.Count() != 2 {
		t.Fatalf("round-trip histogram holds %d observations for 2 calls", snap.Count())
	}
}

// TestMuxClientFaultsSurfaceUnwrapped: the two failures that say nothing
// about the peer — a request too large to frame, a client already closed
// — come back as themselves from the one-call and the pipelined path
// alike, never tagged ErrUnavailable, and the first leaves the
// connection in service.
func TestMuxClientFaultsSurfaceUnwrapped(t *testing.T) {
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

	huge := []kv.Key{kv.Key(make([]byte, maxFramePayload+1))}
	both := func(want error) {
		t.Helper()
		if _, err := cli.ReadItems(bg, huge); err != want {
			t.Fatalf("ReadItems = %v, want %v itself", err, want)
		}
		var b BatchRead
		cli.StartReadItemsFloor(bg, &b, huge, kv.Version{})
		if _, err := b.Wait(bg); err != want {
			t.Fatalf("pipelined read = %v, want %v itself", err, want)
		}
	}
	both(ErrFrameTooLarge)
	if err := cli.Ping(bg); err != nil {
		t.Fatalf("ping after the oversized requests = %v", err)
	}
	if n := srv.connCount(); n != 1 {
		t.Fatalf("server sees %d connections, want 1", n)
	}
	cli.Close()
	both(ErrClientClosed)
}
