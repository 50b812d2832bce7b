package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tcache/internal/db"
	"tcache/internal/telemetry"
)

// server is the serving skeleton both tiers run: listener, connection
// set, handshake, frame demux, inline-vs-worker dispatch, the
// invalidation-push registry, the stats registry, and shutdown
// ordering. DBServer and CacheServer embed it and supply only what
// differs between them, through the four fields below.
type server struct {
	tier string // log and error prefix: "tdbd" or "tcached"
	logf func(format string, args ...any)

	// serve answers one request.
	serve func(ctx context.Context, req Request) Response
	// inline reports whether op completes without ever waiting (on locks,
	// other transactions, a backend), so the connection's read loop may
	// run it in place instead of handing it to a dispatch worker.
	inline func(Op) bool
	// attach connects a new subscription's queue to the tier's
	// invalidation source. Nil when the owner feeds every queue itself
	// (CacheServer.Broadcast).
	attach func(name string, sink db.InvalidationSink) (detach func(), err error)
	// stream takes over a connection that asked for OpReplicate. Nil on
	// a tier without one: the op is then dispatched like any other.
	stream func(ctx context.Context, pc *peerConn, id uint64, req Request)

	ln net.Listener

	// ctx is cancelled by Close; it bounds every in-flight dispatch, so a
	// blocked lock wait or backend fetch cannot outlive the server (or
	// wedge Close's wg.Wait).
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// work hands a request that may block to a parked dispatch worker
	// (handOff). Unbuffered: a send succeeds only while one is waiting.
	work chan task

	// subs are the live invalidation-push streams, by subscriber name.
	// Broadcast pushes to each stream's queue while holding subMu:
	//
	//tcache:lockorder relay < invq
	subMu sync.Mutex //tcache:lockclass relay
	subs  map[string]*invPusher
	// invDropped counts invalidations dropped off the head of a full
	// subscriber queue — the loss rate of the paper's unreliable channel,
	// as this server produces it.
	invDropped atomic.Uint64

	// reg is what OpStats answers from: counters, gauges and histograms.
	reg atomic.Pointer[telemetry.Registry]
}

func newServer(tier string, logf func(string, ...any)) *server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	//lint:ignore ctxdiscipline the server ctx spans all connections and is cancelled by Close, not by any one caller
	ctx, cancel := context.WithCancel(context.Background())
	return &server{
		tier: tier, logf: logf, ctx: ctx, cancel: cancel,
		conns: make(map[net.Conn]struct{}),
		work:  make(chan task),
		subs:  make(map[string]*invPusher),
	}
}

// Registry returns the registry OpStats is answered from — the one the
// constructor built, unless SetRegistry swapped it.
func (s *server) Registry() *telemetry.Registry { return s.reg.Load() }

// SetRegistry swaps the registry OpStats is answered from.
func (s *server) SetRegistry(reg *telemetry.Registry) { s.reg.Store(reg) }

func (s *server) statsResponse() Response {
	snap := s.reg.Load().Snapshot()
	return Response{Code: CodeOK, Stats: &snap}
}

// registerDropped registers the dropped-invalidation counter, under one
// name on both tiers.
func (s *server) registerDropped(reg *telemetry.Registry) {
	reg.Counter("relay_invalidations_dropped", s.invDropped.Load)
}

// Subscribers returns the number of live invalidation-push streams.
func (s *server) Subscribers() int {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	return len(s.subs)
}

// queuedInvalidations sums the invalidation backlog across every live
// push stream.
func (s *server) queuedInvalidations() (n uint64) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	for _, p := range s.subs {
		n += uint64(p.depth())
	}
	return n
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts serving in the
// background. It returns the bound address.
func (s *server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop()
	}()
	return ln.Addr().String(), nil
}

// Close stops accepting, cancels in-flight dispatches, and closes every
// connection; it blocks until the handler goroutines exit.
func (s *server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
}

func (s *server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

func (s *server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// logIO reports a connection-level failure, staying quiet about the two
// ways a connection ends normally.
func (s *server) logIO(what string, err error) {
	if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
		s.logf("%s: %s: %v", s.tier, what, err)
	}
}

// peerConn is one accepted connection past its handshake: the frame
// reader, and the mutex that serializes frame writes from concurrent
// dispatchers and the invalidation pusher.
type peerConn struct {
	net.Conn
	fr      *frameReader
	writeMu sync.Mutex
}

func (pc *peerConn) respond(id uint64, resp *Response) error {
	return writeResponseFrame(pc.Conn, &pc.writeMu, id, resp)
}

func errorResponse(format string, args ...any) Response {
	return Response{Code: CodeError, Err: fmt.Sprintf(format, args...)}
}

// refuse answers request id with a CodeError response.
func (pc *peerConn) refuse(id uint64, format string, args ...any) error {
	resp := errorResponse(format, args...)
	return pc.respond(id, &resp)
}

// task is one request on its way to a dispatch worker: what to serve,
// where to answer, and the connection's in-flight count to release.
type task struct {
	ctx  context.Context
	pc   *peerConn
	id   uint64
	req  Request
	done *sync.WaitGroup
}

// workerLinger is how long an idle dispatch worker stays parked before
// it exits. A variable only so tests can lower it.
var workerLinger = time.Second

// handOff runs t off the connection's read loop: on a parked worker when
// there is one, on a new worker otherwise. There is no cap — a request
// never queues behind another that is blocked.
func (s *server) handOff(t task) {
	select {
	case s.work <- t:
	default:
		s.wg.Add(1)
		go s.worker(t)
	}
}

// worker serves t, then parks for the next task any connection of this
// server hands over, so a steady stream of requests runs on stacks
// already grown to the depth serve needs instead of growing a fresh
// goroutine's each time.
func (s *server) worker(t task) {
	defer s.wg.Done()
	idle := time.NewTimer(workerLinger)
	defer idle.Stop()
	for {
		resp := s.serve(t.ctx, t.req)
		if err := t.pc.respond(t.id, &resp); err != nil {
			s.logIO("write", err)
			t.pc.Close() // unblock the frame reader
		}
		t.done.Done()
		t = task{} // pin nothing while parked
		// Reset without Stop-and-drain: a tick left over from a request that
		// outlasted the linger only lets this worker go a little early.
		idle.Reset(workerLinger)
		select {
		case t = <-s.work:
		case <-idle.C:
			return
		case <-s.ctx.Done():
			return
		}
	}
}

// handle serves one connection: version handshake, then a stream of
// request frames. Requests that may block are handed to a dispatch
// worker, so a blocked update (or a read stuck on a slow backend fetch)
// never head-of-line-blocks the requests multiplexed behind it on the
// same connection; responses are written under the connection's write
// mutex, tagged with the request id they answer.
func (s *server) handle(conn net.Conn) {
	// ctx dies with this connection (and with the whole server), aborting
	// any work the peer abandoned mid-flight. Defer order (LIFO): cancel
	// in-flight work, close the connection — so a worker stuck writing to
	// a peer that stopped reading errors out instead of wedging the wait
	// — then wait for this connection's requests to leave the workers.
	var reqWG sync.WaitGroup
	defer reqWG.Wait()
	defer s.dropConn(conn)
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()

	br := bufio.NewReader(conn)
	if err := serverHandshake(conn, br); err != nil {
		s.logIO("handshake", err)
		return
	}
	pc := &peerConn{Conn: conn, fr: newFrameReader(br, s.logf)}

	for {
		typ, id, payload, err := pc.fr.Read()
		if err != nil {
			s.logIO("read", err)
			return
		}
		if typ != frameRequest {
			continue
		}
		req, derr := decodeRequest(payload)
		if derr != nil {
			// The frame boundary is intact, so the stream is still good:
			// answer this id with an error instead of dropping the conn.
			s.logf("%s: decode: %v", s.tier, derr)
			if pc.refuse(id, "%v", derr) != nil {
				return
			}
			continue
		}
		switch {
		case req.Op == OpSubscribe:
			// Switch to push mode: the ack is the last response on this
			// connection; from here on the server pushes invalidation
			// batches.
			s.servePush(pc, id, req.Subscriber)
			return
		case req.Op == OpReplicate && s.stream != nil:
			// Switch to replication-stream mode: the mode response is the
			// last request/response exchange; from here on the server
			// pushes snapshot and record frames and reads only ack frames.
			s.stream(ctx, pc, id, req)
			return
		case s.inline(req.Op):
			// No goroutine hop, and it cannot head-of-line-block the
			// connection.
			resp := s.serve(ctx, req)
			if err := pc.respond(id, &resp); err != nil {
				s.logIO("write", err)
				return
			}
		default:
			reqWG.Add(1)
			s.handOff(task{ctx: ctx, pc: pc, id: id, req: req, done: &reqWG})
		}
	}
}

// register files p under name — two subscribers sharing a name would
// starve one of them, so a name already live is refused — and attaches
// it to the tier's invalidation source.
func (s *server) register(name string, p *invPusher) (detach func(), err error) {
	s.subMu.Lock()
	if _, dup := s.subs[name]; dup {
		s.subMu.Unlock()
		return nil, fmt.Errorf("%w: %q", db.ErrDuplicateSubscriber, name)
	}
	s.subs[name] = p
	s.subMu.Unlock()
	unregister := func() {
		s.subMu.Lock()
		delete(s.subs, name)
		s.subMu.Unlock()
	}
	if s.attach == nil {
		return unregister, nil
	}
	unsub, err := s.attach(name, p.push)
	if err != nil {
		unregister()
		return nil, err
	}
	return func() {
		unsub()
		unregister()
	}, nil
}

// servePush turns the connection into an invalidation stream for
// subscriber name: invalidations are queued and flushed by a pusher
// goroutine, coalescing everything that accumulated during one
// in-flight push into a single batched frame.
func (s *server) servePush(pc *peerConn, id uint64, name string) {
	if name == "" {
		name = pc.RemoteAddr().String()
	}
	p := newInvPusher(pc, &s.invDropped)
	detach, err := s.register(name, p)
	if err != nil {
		_ = pc.refuse(id, "%v", err) // the conn closes either way
		return
	}
	go p.run()
	defer func() {
		detach()
		p.stop()
	}()
	if err := pc.respond(id, &Response{Code: CodeOK}); err != nil {
		return
	}
	// Block until the peer goes away. The stream carries pushes only: a
	// request sent on it is refused by id, so a confused peer fails fast
	// instead of waiting on an answer that never comes.
	for {
		typ, id, _, err := pc.fr.Read()
		if err != nil {
			return
		}
		if typ == frameRequest && pc.refuse(id, "%s: connection is a push stream; subscribe must be its only request", s.tier) != nil {
			return
		}
	}
}

// maxQueuedInvalidations bounds a subscriber's backlog. The pipeline is
// asynchronous and unreliable by design, so overflow drops the oldest
// queued invalidations — counted, as relay_invalidations_dropped —
// rather than blocking the database's commit path.
const maxQueuedInvalidations = 1 << 16

// maxInvalidationFrameBytes bounds one coalesced invalidation frame,
// comfortably under maxFramePayload. It is a variable only so tests can
// lower it to exercise the chunking path cheaply.
var maxInvalidationFrameBytes = 1 << 20

// invPusher batches invalidations for one subscription connection: the
// source appends under a mutex and nudges the pusher, which drains the
// whole backlog into one frame per write. Invalidations that arrive
// while a frame is being written are coalesced into the next one.
type invPusher struct {
	pc *peerConn

	mu      sync.Mutex //tcache:lockclass invq
	queue   []Invalidation
	dropped *atomic.Uint64 // the server's invDropped

	wake chan struct{}
	done chan struct{}
}

func newInvPusher(pc *peerConn, dropped *atomic.Uint64) *invPusher {
	return &invPusher{pc: pc, dropped: dropped, wake: make(chan struct{}, 1), done: make(chan struct{})}
}

func (p *invPusher) push(inv Invalidation) {
	p.mu.Lock()
	if len(p.queue) >= maxQueuedInvalidations {
		// The backing array outlives the reslice: clear the dropped head so
		// it stops pinning its key.
		p.queue[0] = Invalidation{}
		p.queue = p.queue[1:]
		p.dropped.Add(1)
	}
	p.queue = append(p.queue, inv)
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

func (p *invPusher) run() {
	for {
		select {
		case <-p.wake:
		case <-p.done:
			return
		}
		p.mu.Lock()
		batch := p.queue
		p.queue = nil
		p.mu.Unlock()
		// Chunk by encoded size: a backlog that built up behind a stalled
		// push could otherwise exceed the frame payload cap, and failing
		// the whole flush would flap the subscription forever.
		for len(batch) > 0 {
			n, size := 0, 0
			for n < len(batch) && size < maxInvalidationFrameBytes {
				size += len(batch[n].Key) + 24 // key bytes + varint/header slack
				n++
			}
			if err := writeInvalidationFrame(p.pc.Conn, &p.pc.writeMu, batch[:n]); err != nil {
				// Failures just drop this subscriber's messages; closing
				// the socket makes the serving loop notice and unsubscribe.
				p.pc.Close()
				return
			}
			batch = batch[n:]
		}
	}
}

func (p *invPusher) stop() { close(p.done) }

// depth returns the current queued-invalidation backlog.
func (p *invPusher) depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}
