package transport

// One suite for the one serving skeleton, run against both server kinds:
// whatever server.handle promises, a tdbd and a tcached promise alike.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
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
		holder := d.Begin() // never finished: its write lock parks every update of "k"
		if err := holder.Write("k", kv.Value("held")); err != nil {
			t.Fatal(err)
		}
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
