package transport

// One suite for the one serving skeleton, run against both server kinds:
// whatever server.handle promises, a tdbd and a tcached promise alike.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/kv"
)

// blockingBackend is a cache backend whose reads wait for their context:
// a dispatch parked on it stays parked until the server cancels it.
type blockingBackend struct{}

func (blockingBackend) ReadItem(ctx context.Context, _ kv.Key) (kv.Item, bool, error) {
	<-ctx.Done()
	return kv.Item{}, false, ctx.Err()
}

// skeletonServer is one running server kind plus a request that parks a
// dispatch goroutine until the server (or the connection) is closed.
type skeletonServer struct {
	addr    string
	close   func()
	blocked Request
}

var serverKinds = map[string]func(t *testing.T) skeletonServer{
	"tdbd": func(t *testing.T) skeletonServer {
		d := db.Open(db.Config{})
		t.Cleanup(func() { d.Close() })
		holdKey(t, d, "k") // never released: it parks every update of "k"
		srv := NewDBServer(d, t.Logf)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return skeletonServer{addr, srv.Close, Request{Op: OpUpdate, Writes: []KeyValue{{Key: "k", Value: kv.Value("parked")}}}}
	},
	"tcached": func(t *testing.T) skeletonServer {
		cache, err := core.New(core.Config{Backend: blockingBackend{}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cache.Close)
		srv := NewCacheServer(cache, t.Logf)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return skeletonServer{addr, srv.Close, Request{Op: OpGet, Key: "k"}}
	},
}

// rawPeer is a hand-driven connection: the tests speak frames directly.
type rawPeer struct {
	net.Conn
	fr *frameReader
}

func dialRaw(t *testing.T, addr string, version byte) rawPeer {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	hs := handshakeBytes()
	hs[4] = version
	if _, err := c.Write(hs[:]); err != nil {
		t.Fatal(err)
	}
	if peer, err := readHandshake(c); err != nil || peer != ProtocolVersion {
		t.Fatalf("server handshake reply = (%d, %v)", peer, err)
	}
	return rawPeer{c, newFrameReader(c, nil)}
}

func (p rawPeer) send(t *testing.T, id uint64, req Request) {
	t.Helper()
	if err := writeRequestFrame(p, nil, id, &req); err != nil {
		t.Fatal(err)
	}
}

func (p rawPeer) response(t *testing.T, id uint64) Response {
	t.Helper()
	for {
		typ, got, payload, err := p.fr.Read()
		if err != nil {
			t.Fatalf("waiting for response %d: %v", id, err)
		}
		if typ != frameResponse {
			continue
		}
		if got != id {
			t.Fatalf("response for request %d, want %d", got, id)
		}
		resp, err := decodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
}

func TestServerSkeleton(t *testing.T) {
	for kind, start := range serverKinds {
		t.Run(kind, func(t *testing.T) {
			t.Run("handshake mismatch", func(t *testing.T) {
				// The server answers with its own handshake (so the stale
				// client learns both versions — dialRaw checks it), then
				// closes without serving a frame.
				p := dialRaw(t, start(t).addr, ProtocolVersion-1)
				if _, err := p.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
					t.Fatalf("server kept a mismatched connection open (read = %v)", err)
				}
			})

			t.Run("undecodable frame answered by id", func(t *testing.T) {
				p := dialRaw(t, start(t).addr, ProtocolVersion)
				if err := writeFrame(p, nil, frameRequest, 7, func(b []byte) []byte {
					return append(b, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
				}); err != nil {
					t.Fatal(err)
				}
				if resp := p.response(t, 7); resp.Code != CodeError {
					t.Fatalf("garbage payload answered %+v, want CodeError", resp)
				}
				// The frame boundary was intact, so the stream still is.
				p.send(t, 8, Request{Op: OpPing})
				if resp := p.response(t, 8); resp.Code != CodeOK {
					t.Fatalf("ping after a bad frame = %+v", resp)
				}
			})

			t.Run("second subscribe rejected", func(t *testing.T) {
				p := dialRaw(t, start(t).addr, ProtocolVersion)
				p.send(t, 1, Request{Op: OpSubscribe, Subscriber: "once"})
				if resp := p.response(t, 1); resp.Code != CodeOK {
					t.Fatalf("subscribe = %+v", resp)
				}
				p.send(t, 2, Request{Op: OpSubscribe, Subscriber: "twice"})
				if resp := p.response(t, 2); resp.Code != CodeError || !strings.Contains(resp.Err, "push stream") {
					t.Fatalf("second subscribe on a push stream = %+v, want a refusal", resp)
				}
			})

			t.Run("duplicate subscriber name rejected", func(t *testing.T) {
				addr := start(t).addr
				stop, err := SubscribeInvalidations(bg, addr, "edge", func(Invalidation) {})
				if err != nil {
					t.Fatal(err)
				}
				_, err = SubscribeInvalidations(bg, addr, "edge", func(Invalidation) {})
				if err == nil || !strings.Contains(err.Error(), db.ErrDuplicateSubscriber.Error()) {
					t.Fatalf("duplicate subscriber name = %v, want a duplicate-subscriber refusal", err)
				}
				if errors.Is(err, ErrUnavailable) {
					t.Fatalf("a refusal is an answer, not a health signal: %v", err)
				}
				// The name is released with the stream that held it.
				stop()
				deadline := time.Now().Add(5 * time.Second)
				for {
					again, err := SubscribeInvalidations(bg, addr, "edge", func(Invalidation) {})
					if err == nil {
						again()
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("name never released after its stream closed: %v", err)
					}
					time.Sleep(5 * time.Millisecond)
				}
			})

			t.Run("close with a blocked dispatch and a peer that stopped reading", func(t *testing.T) {
				s := start(t)
				p := dialRaw(t, s.addr, ProtocolVersion)
				p.send(t, 1, s.blocked)
				// Never read: flood inline requests until their unread
				// answers back up the socket and wedge the server's writer.
				var flood bytes.Buffer
				for i := 0; i < 256; i++ {
					req := Request{Op: OpStats}
					if err := writeRequestFrame(&flood, nil, uint64(2+i), &req); err != nil {
						t.Fatal(err)
					}
				}
				flooded := make(chan struct{})
				go func() {
					defer close(flooded)
					for {
						if _, err := p.Write(flood.Bytes()); err != nil {
							return // the server closed the connection under us
						}
					}
				}()
				time.Sleep(50 * time.Millisecond) // let the dispatch park and the writer wedge

				closed := make(chan struct{})
				go func() {
					s.close()
					close(closed)
				}()
				select {
				case <-closed:
				case <-time.After(5 * time.Second):
					t.Fatal("Close hung behind a blocked dispatch and a stuck writer")
				}
				select {
				case <-flooded:
				case <-time.After(5 * time.Second):
					t.Fatal("connection still open after Close")
				}
			})
		})
	}
}

// settledGoroutines returns runtime.NumGoroutine once it has held still
// for 50 ms: goroutines of earlier tests are still exiting when a test
// starts.
func settledGoroutines() int {
	n, since := runtime.NumGoroutine(), time.Now()
	for time.Since(since) < 50*time.Millisecond {
		time.Sleep(5 * time.Millisecond)
		if now := runtime.NumGoroutine(); now != n {
			n, since = now, time.Now()
		}
	}
	return n
}

// TestWorkerReuseAndLinger counts dispatch workers by counting
// goroutines: a stream of blocking requests, one at a time, is served by
// a few parked workers, not by a goroutine each (more than one, because
// a worker answers before it parks and the next request can arrive while
// it is still on its way); requests blocked at once each hold a worker;
// and workers left idle exit on their own.
func TestWorkerReuseAndLinger(t *testing.T) {
	// Restored by the last cleanup to run: after the server's Close has
	// waited for every worker that reads it.
	linger := workerLinger
	t.Cleanup(func() { workerLinger = linger })
	workerLinger = 100 * time.Millisecond

	d := db.Open(db.Config{})
	t.Cleanup(func() { d.Close() })
	srv := NewDBServer(d, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	p := dialRaw(t, addr, ProtocolVersion)
	update := func(id uint64, key kv.Key) {
		p.send(t, id, Request{Op: OpUpdate, Writes: []KeyValue{{Key: key, Value: kv.Value("v")}}})
	}
	idle := settledGoroutines() // no worker yet: nothing has been dispatched

	for id := uint64(1); id <= 50; id++ {
		update(id, "free")
		if resp := p.response(t, id); resp.Code != CodeOK {
			t.Fatalf("update %d = %+v", id, resp)
		}
	}
	parked := runtime.NumGoroutine() - idle
	if parked < 1 || parked > 10 {
		t.Fatalf("%d workers after 50 updates in a row, want a few parked ones, not one per request", parked)
	}

	// One more update than there are workers, all parked on a held lock:
	// every worker is taken and one more is started.
	hold := holdKey(t, d, "held")
	for i := 0; i <= parked; i++ {
		update(uint64(100+i), "held")
	}
	waitQueued(t, hold, parked+1)
	waitUntil(t, "a worker for each blocked update", func() bool { return runtime.NumGoroutine() == idle+parked+1 })
	hold.Release()
	for i := 0; i <= parked; i++ { // the answers, in whatever order the lock queue released them
		if _, _, _, err := p.fr.Read(); err != nil {
			t.Fatal(err)
		}
	}

	waitUntil(t, "idle workers to exit", func() bool { return runtime.NumGoroutine() == idle })
	update(200, "free") // and the next request starts one again
	if resp := p.response(t, 200); resp.Code != CodeOK {
		t.Fatalf("update after the workers left = %+v", resp)
	}
}

// TestWorkersGoneAfterClose: Close with requests blocked in three
// workers cancels them, waits for each connection's requests to leave
// the workers (handle's drain order) and for the workers themselves —
// when it returns, nothing the server started is still running.
func TestWorkersGoneAfterClose(t *testing.T) {
	for kind, start := range serverKinds {
		t.Run(kind, func(t *testing.T) {
			before := settledGoroutines()
			s := start(t)
			p := dialRaw(t, s.addr, ProtocolVersion)
			running := runtime.NumGoroutine()
			for id := uint64(1); id <= 3; id++ {
				p.send(t, id, s.blocked)
			}
			waitUntil(t, "three workers", func() bool { return runtime.NumGoroutine() == running+3 })
			s.close()
			p.Close()
			waitUntil(t, "every server goroutine to be gone", func() bool { return runtime.NumGoroutine() <= before })
		})
	}
}

// TestInvalidationOverflowCountedAndDropped stalls a subscriber (it
// never reads) and relays invalidations at it until the socket backs up
// and its queue overflows: the queue holds at its bound, what fell off
// its head is counted as relay_invalidations_dropped, and nothing else
// went missing.
func TestInvalidationOverflowCountedAndDropped(t *testing.T) {
	cache, err := core.New(core.Config{Backend: blockingBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cache.Close)
	srv := NewCacheServer(cache, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	p := dialRaw(t, addr, ProtocolVersion)
	p.send(t, 1, Request{Op: OpSubscribe, Subscriber: "stalled"})
	if resp := p.response(t, 1); resp.Code != CodeOK {
		t.Fatalf("subscribe = %+v", resp)
	}

	// 1 KiB keys: a few thousand fill the loopback socket buffers, after
	// which the pusher is stuck in a write and the queue only grows.
	key := kv.Key(strings.Repeat("k", 1024))
	stats := func() (queued, dropped uint64) {
		st := srv.statsResponse().Stats
		return st.Gauges["relay_queue"], st.Counters["relay_invalidations_dropped"]
	}
	sent := uint64(0)
	for queued, dropped := stats(); dropped < 1000 || queued < maxQueuedInvalidations; queued, dropped = stats() {
		if sent > 50*maxQueuedInvalidations {
			t.Fatalf("no drop after %d invalidations at a subscriber that reads nothing", sent)
		}
		for i := 0; i < 4096; i++ {
			sent++
			srv.Broadcast(Invalidation{Key: key, Version: kv.Version{Counter: sent}})
		}
	}
	queued, dropped := stats()
	if queued != maxQueuedInvalidations {
		t.Fatalf("relay_queue = %d with drops counted, want it held at the bound %d", queued, maxQueuedInvalidations)
	}
	// Everything sent is queued, dropped, or was taken by the pusher: what
	// the socket swallowed plus the one batch it is stuck writing.
	if onWire := sent - queued - dropped; onWire == 0 || onWire > 2*maxQueuedInvalidations {
		t.Fatalf("sent %d, queued %d, dropped %d: %d unaccounted for", sent, queued, dropped, onWire)
	}
	// The tdbd registry carries the same counter.
	d := db.Open(db.Config{})
	t.Cleanup(func() { d.Close() })
	if _, ok := NewDBServer(d, nil).statsResponse().Stats.Counters["relay_invalidations_dropped"]; !ok {
		t.Fatal("tdbd registry has no relay_invalidations_dropped")
	}
}
