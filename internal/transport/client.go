package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/kv"
	"tcache/internal/telemetry"
)

// Errors mapped from response codes.
var (
	// ErrAborted mirrors core.ErrTxnAborted across the wire.
	ErrAborted = core.ErrTxnAborted
	// ErrNotFound mirrors core.ErrNotFound across the wire.
	ErrNotFound = core.ErrNotFound
	// ErrConflict reports an update-transaction conflict; retry. It
	// wraps db.ErrConflict so callers can match either identity no
	// matter which side of the wire the conflict surfaced on.
	ErrConflict = fmt.Errorf("transport: update conflict, retry: %w", db.ErrConflict)
	// ErrClientClosed reports an operation on a closed client.
	ErrClientClosed = errors.New("transport: client closed")
	// ErrUnavailable marks transport-level failures — a dial that never
	// connected, a connection that died mid-call, a stream that stopped
	// framing — as opposed to application-level error responses from a
	// live server. Health checkers (the cluster router) eject a node only
	// on errors carrying this marker: a server that answers, even with an
	// error, is alive.
	ErrUnavailable = errors.New("transport: peer unavailable")
)

// wrapUnavail tags a transport-level failure with ErrUnavailable. Context
// cancellations, client-side faults (ErrFrameTooLarge), and deliberate
// closes (ErrClientClosed) keep their identity untagged: none of them
// says anything about the peer's health.
func wrapUnavail(err error) error {
	if err == nil ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrClientClosed) || errors.Is(err, ErrFrameTooLarge) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrUnavailable, err)
}

// muxResult is one settled round trip.
type muxResult struct {
	resp Response
	err  error
}

// callPool recycles pending slots. A slot is settled exactly once, by
// readLoop or by fail: only the caller that took that result, or took the
// slot out of the pending table first (abandon), may reuse it.
var callPool = sync.Pool{New: func() any { return make(chan muxResult, 1) }}

// writeStall bounds a frame write: the write deadline is kept one to two
// writeStall ahead, so a peer that stopped reading fails the connection
// instead of wedging the caller in Write, which cannot see its ctx.
const writeStall = 30 * time.Second

// muxConn is one multiplexed connection: any number of in-flight round
// trips share it. A caller writes its own request, as one whole frame,
// while it holds the write side, so a cancelled caller never tears a
// frame; the write side is a one-token channel, not a mutex, so that a
// caller queued for it can still give up when its ctx fires. A demux
// reader owns the read side and routes each response to the pending
// call with the matching request id. Cancelling a call's ctx simply
// abandons its pending slot — the connection stays healthy.
type muxConn struct {
	c      net.Conn
	nextID atomic.Uint64

	wlock     chan struct{} // holds a token while a frame is written
	wdeadline time.Time     // the socket's write deadline; guarded by wlock

	mu      sync.Mutex //tcache:lockclass mux
	pending map[uint64]chan muxResult
	closed  bool
	err     error

	// dead is closed exactly once when the connection fails or is closed.
	dead chan struct{}
}

// dialPeer dials addr and runs the version handshake. With a non-nil
// first request it also sends it and waits for its response — the mode
// switch that opens a push or replication stream. ctx bounds the whole
// exchange and nothing after it: the I/O is sequential and blocking, so
// it is interrupted by poking the deadline if ctx fires. A failure to
// complete the exchange is a health signal (ErrUnavailable); what a
// server that answered said is the caller's to judge.
func dialPeer(ctx context.Context, addr string, first *Request) (net.Conn, *frameReader, Response, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, nil, Response{}, wrapUnavail(fmt.Errorf("transport: dial %s: %w", addr, err))
	}
	br := bufio.NewReader(c)
	fr := newFrameReader(br, nil)
	stop := context.AfterFunc(ctx, func() { c.SetDeadline(time.Unix(1, 0)) })
	resp, err := func() (Response, error) {
		if first == nil {
			return Response{}, clientHandshake(c, br)
		}
		// The request rides behind our handshake in the same write instead
		// of a round trip later: the server reads both from one buffer. On
		// a link that loses chunks without closing, a lost server
		// handshake then fails the read below at once, on the reply,
		// instead of leaving both sides waiting until ctx ends.
		hs := handshakeBytes()
		out := bytes.NewBuffer(hs[:])
		if err := writeRequestFrame(out, nil, 1, first); err != nil {
			return Response{}, err
		}
		if _, err := c.Write(out.Bytes()); err != nil {
			return Response{}, fmt.Errorf("transport: write handshake: %w", err)
		}
		if err := readServerHandshake(br); err != nil {
			return Response{}, err
		}
		for {
			typ, id, payload, err := fr.Read()
			if err != nil {
				return Response{}, err
			}
			if typ == frameResponse && id == 1 {
				return decodeResponse(payload)
			}
		}
	}()
	if !stop() && err == nil {
		// The poke raced a completed exchange; the deadline may be
		// poisoned, so the connection cannot be trusted.
		err = ctx.Err()
	}
	if err != nil {
		c.Close()
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, nil, Response{}, ctxErr
		}
		return nil, nil, Response{}, wrapUnavail(err)
	}
	return c, fr, resp, nil
}

// dialMux dials addr and starts the demux reader. ctx bounds the dial and
// handshake only.
func dialMux(ctx context.Context, addr string) (*muxConn, error) {
	c, fr, _, err := dialPeer(ctx, addr, nil)
	if err != nil {
		return nil, err
	}
	cn := &muxConn{
		c:       c,
		wlock:   make(chan struct{}, 1),
		pending: make(map[uint64]chan muxResult),
		dead:    make(chan struct{}),
	}
	go cn.readLoop(fr)
	return cn, nil
}

// alive reports whether the connection can still take requests.
func (cn *muxConn) alive() bool {
	select {
	case <-cn.dead:
		return false
	default:
		return true
	}
}

// fail marks the connection dead with err, closes the socket, and
// settles every pending call. It never blocks and is idempotent.
func (cn *muxConn) fail(err error) {
	cn.mu.Lock()
	if cn.closed {
		cn.mu.Unlock()
		return
	}
	cn.closed = true
	cn.err = err
	pending := cn.pending
	cn.pending = nil
	cn.mu.Unlock()
	close(cn.dead)
	cn.c.Close()
	for _, ch := range pending {
		ch <- muxResult{err: err}
	}
}

func (cn *muxConn) readLoop(fr *frameReader) {
	for {
		typ, id, payload, err := fr.Read()
		if err != nil {
			cn.fail(fmt.Errorf("transport: read: %w", err))
			return
		}
		if typ != frameResponse {
			continue // push frames never appear on a mux connection
		}
		cn.mu.Lock()
		ch, ok := cn.pending[id]
		if ok {
			delete(cn.pending, id)
		}
		cn.mu.Unlock()
		if !ok {
			continue // the caller abandoned the slot (ctx cancelled)
		}
		resp, derr := decodeResponse(payload)
		if derr != nil {
			ch <- muxResult{err: derr}
			continue
		}
		ch <- muxResult{resp: resp}
	}
}

// abandon gives up pending slot id, recycling it only if it was still
// registered: otherwise readLoop or fail holds it and will settle it.
func (cn *muxConn) abandon(id uint64, ch chan muxResult) {
	cn.mu.Lock()
	_, registered := cn.pending[id]
	delete(cn.pending, id)
	cn.mu.Unlock()
	if registered {
		callPool.Put(ch)
	}
}

// send registers a pending slot for req and writes its frame on the
// calling goroutine; await collects the reply, and any number of sends
// may precede their awaits. A write error fails the connection, which
// settles the slot: it surfaces from await. ctx cancelled while queued
// for the write side abandons the slot and returns at once.
func (cn *muxConn) send(ctx context.Context, req *Request) (uint64, chan muxResult, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	id := cn.nextID.Add(1)
	ch := callPool.Get().(chan muxResult)
	cn.mu.Lock()
	if cn.closed {
		err := cn.err
		cn.mu.Unlock()
		callPool.Put(ch)
		return 0, nil, err
	}
	cn.pending[id] = ch
	cn.mu.Unlock()

	select {
	case cn.wlock <- struct{}{}:
	default:
		select {
		case cn.wlock <- struct{}{}:
		case <-cn.dead:
			return id, ch, nil // fail has settled the slot: await reports why
		case <-ctx.Done():
			cn.abandon(id, ch)
			return 0, nil, ctx.Err()
		}
	}
	if now := time.Now(); cn.wdeadline.Sub(now) < writeStall {
		cn.wdeadline = now.Add(2 * writeStall)
		cn.c.SetWriteDeadline(cn.wdeadline)
	}
	err := writeRequestFrame(cn.c, nil, id, req)
	<-cn.wlock
	if err == ErrFrameTooLarge { // nothing was written: the connection is fine
		cn.abandon(id, ch)
		return 0, nil, err
	}
	if err != nil {
		cn.fail(err)
	}
	return id, ch, nil
}

// await waits for the reply to send's request id. ctx cancellation
// abandons the slot; the connection remains usable for other calls.
func (cn *muxConn) await(ctx context.Context, id uint64, ch chan muxResult) (Response, error) {
	select {
	case r := <-ch:
		callPool.Put(ch)
		return r.resp, r.err
	case <-ctx.Done():
		cn.abandon(id, ch)
		return Response{}, ctx.Err()
	}
}

// ClientOption tunes a DBClient's failure handling.
type ClientOption func(*clientConfig)

// clientConfig carries a DBClient's tunables.
type clientConfig struct {
	maxRedials    int
	redialBackoff time.Duration
}

func defaultClientConfig() clientConfig {
	return clientConfig{maxRedials: 2, redialBackoff: 2 * time.Millisecond}
}

// WithMaxRedials caps how many guaranteed-fresh redials one idempotent
// call may attempt after failing on a previously established (possibly
// stale) connection. The default is 2: one immediate (the common
// server-restart case, where every pooled connection is half-dead and a
// fresh dial succeeds at once) and one more after a jittered backoff. A
// cluster router sets 1 so a flapping node fails fast to the health
// checker instead of being nursed per-call; 0 disables the retry
// entirely.
func WithMaxRedials(n int) ClientOption {
	return func(c *clientConfig) { c.maxRedials = n }
}

// WithRedialBackoff sets the base delay before the second and later
// redial attempts of one call (default 2ms, doubling per attempt,
// uniformly jittered to avoid retry convoys).
func WithRedialBackoff(d time.Duration) ClientOption {
	return func(c *clientConfig) { c.redialBackoff = d }
}

// mux is a fixed-size set of multiplexed connections, the core of
// DBClient: N concurrent calls share these few connections, and a
// slot whose connection died is redialed on next use, so a restarted
// server is picked up transparently.
type mux struct {
	addr   string
	cfg    clientConfig
	slots  []*muxSlot
	next   atomic.Uint64
	closed atomic.Bool

	// rtHist, when set, records every round trip's wall time (including
	// any redial retries — the latency the caller actually experienced).
	rtHist atomic.Pointer[telemetry.Histogram]
}

// LiveConns counts the pool slots holding a live connection right now —
// the conn-pool gauge. Slots redial lazily, so this ramps with traffic.
func (m *mux) LiveConns() int {
	n := 0
	for _, s := range m.slots {
		s.mu.Lock()
		if s.cn != nil && s.cn.alive() {
			n++
		}
		s.mu.Unlock()
	}
	return n
}

type muxSlot struct {
	mu sync.Mutex //tcache:lockclass slot
	cn *muxConn
}

func newMux(ctx context.Context, addr string, size int, cfg clientConfig) (*mux, error) {
	if size < 1 {
		size = 1
	}
	m := &mux{addr: addr, cfg: cfg, slots: make([]*muxSlot, size)}
	for i := range m.slots {
		m.slots[i] = &muxSlot{}
	}
	// Dial the first connection eagerly so an unreachable address fails
	// at dial time; start the rotation so the first request lands on it.
	cn, err := dialMux(ctx, addr)
	if err != nil {
		return nil, err
	}
	m.slots[0].cn = cn
	m.next.Store(^uint64(0))
	return m, nil
}

// grab returns the next slot's connection, redialing if it is absent or
// dead. fresh reports that the connection was dialed by this call (a
// failure on it is not a staleness artifact, so it is not retried).
func (m *mux) grab(ctx context.Context) (s *muxSlot, cn *muxConn, fresh bool, err error) {
	if m.closed.Load() {
		return nil, nil, false, ErrClientClosed
	}
	s = m.slots[int(m.next.Add(1))%len(m.slots)]
	s.mu.Lock()
	if s.cn != nil && s.cn.alive() {
		cn = s.cn
		s.mu.Unlock()
		return s, cn, false, nil
	}
	s.cn = nil
	s.mu.Unlock()
	// Dial outside the slot lock so Close (and other slot users) never
	// wait behind a slow dial.
	dialed, err := dialMux(ctx, m.addr)
	if err != nil {
		return nil, nil, false, err
	}
	use, err := m.install(s, dialed)
	if err != nil {
		dialed.fail(ErrClientClosed)
		return nil, nil, false, err
	}
	if use != dialed {
		// Lost a concurrent redial race: the winner is live, use it.
		dialed.fail(ErrClientClosed)
		return s, use, false, nil
	}
	return s, dialed, true, nil
}

// install offers a freshly dialed connection to slot s, atomically under
// the slot lock: if the mux closed, it errors (caller discards cn); if a
// racing dial already installed a live connection, that winner is
// returned (caller discards cn and uses it); otherwise cn is installed
// and returned. Doing the decision in one critical section means a slot
// can never refuse a healthy dial and then turn out empty.
func (m *mux) install(s *muxSlot, cn *muxConn) (*muxConn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.closed.Load() {
		return nil, ErrClientClosed
	}
	if s.cn != nil && s.cn.alive() {
		return s.cn, nil
	}
	s.cn = cn
	return cn, nil
}

// SetRoundTripHistogram makes every subsequent call record its wall
// time (dial retries included) into h; nil disables. Safe to call
// concurrently with in-flight requests.
func (m *mux) SetRoundTripHistogram(h *telemetry.Histogram) { m.rtHist.Store(h) }

// Ping checks liveness.
func (m *mux) Ping(ctx context.Context) error {
	_, err := m.call(ctx, Request{Op: OpPing})
	return err
}

// Stats fetches the server's registry snapshot — a tdbd's database
// metrics, or a tcached's cache metrics.
func (m *mux) Stats(ctx context.Context) (telemetry.Snapshot, error) {
	resp, err := m.call(ctx, Request{Op: OpStats})
	if resp.Stats == nil {
		return telemetry.Snapshot{}, err
	}
	return *resp.Stats, err
}

// call is roundTrip for the ops whose only failure answer is CodeError.
func (m *mux) call(ctx context.Context, req Request) (Response, error) {
	resp, err := m.roundTrip(ctx, req)
	if err == nil && resp.Code != CodeOK {
		err = fmt.Errorf("transport: %s: %s", req.Op, resp.Err)
	}
	return resp, err
}

// Close closes every connection without waiting for in-flight round
// trips; each pending call settles with ErrClientClosed.
func (m *mux) Close() {
	if m.closed.Swap(true) {
		return
	}
	for _, s := range m.slots {
		s.mu.Lock()
		cn := s.cn
		s.cn = nil
		s.mu.Unlock()
		if cn != nil {
			cn.fail(ErrClientClosed)
		}
	}
}

// inflight is one mux round trip between start and wait; the caller
// owns it and fills in req.
type inflight struct {
	req   Request
	began time.Time // zero unless a round-trip histogram is attached
	s     *muxSlot
	cn    *muxConn
	fresh bool
	id    uint64
	ch    chan muxResult
	err   error // why start could not send; wait reports or retries it
}

// start sends f.req on the next connection without waiting for the
// reply, so a caller may start several calls — on this mux or others —
// before it waits for any. What went wrong, if anything, is kept for wait.
func (m *mux) start(ctx context.Context, f *inflight) {
	if m.rtHist.Load() != nil {
		f.began = time.Now()
	}
	if f.s, f.cn, f.fresh, f.err = m.grab(ctx); f.err == nil {
		f.id, f.ch, f.err = f.cn.send(ctx, &f.req)
	}
}

// wait collects the reply to a started call. A failure on a previously
// established (possibly stale) connection is retried on a
// guaranteed-fresh dial — a server restart leaves every pooled
// connection half-dead, so rotating to another slot could fail the same
// way — but only for idempotent operations (an Update whose response was
// lost may already have been applied), and for at most cfg.maxRedials
// attempts per call, with a jittered exponential backoff before the
// second and later attempts. The cap is what lets a flapping node fail
// fast to a cluster health checker instead of being retried forever by
// every caller. The histogram sees the time from start to here, redials
// included — the latency the caller experienced.
func (m *mux) wait(ctx context.Context, f *inflight) (Response, error) {
	if f.cn == nil {
		return Response{}, f.err // a failed dial arrives tagged by dialPeer
	}
	resp, err := Response{}, f.err
	if err == nil {
		resp, err = f.cn.await(ctx, f.id, f.ch)
	}
	if err != nil {
		resp, err = m.redial(ctx, f, err)
	}
	if !f.began.IsZero() {
		if h := m.rtHist.Load(); h != nil {
			h.ObserveSince(f.began)
		}
	}
	return resp, err
}

// roundTrip is start and wait back to back.
func (m *mux) roundTrip(ctx context.Context, req Request) (Response, error) {
	f := inflight{req: req}
	m.start(ctx, &f)
	return m.wait(ctx, &f)
}

// redial is wait's retry ladder for a call that failed with err on f.cn.
func (m *mux) redial(ctx context.Context, f *inflight, err error) (Response, error) {
	if f.fresh || ctx.Err() != nil || !idempotent(f.req.Op) ||
		errors.Is(err, ErrClientClosed) || errors.Is(err, ErrFrameTooLarge) {
		return Response{}, wrapUnavail(err)
	}
	var resp Response
	backoff := m.cfg.redialBackoff
	for attempt := 0; attempt < m.cfg.maxRedials; attempt++ {
		if attempt > 0 {
			// Jittered: colliding retriers spread out instead of redialing
			// in lockstep against a struggling server.
			if serr := SleepJittered(ctx, backoff); serr != nil {
				return Response{}, wrapUnavail(err) // report the request failure, not the sleep
			}
			backoff *= 2
		}
		if m.closed.Load() {
			return Response{}, ErrClientClosed
		}
		redialed, derr := dialMux(ctx, m.addr)
		if derr != nil {
			if ctx.Err() != nil {
				return Response{}, ctx.Err()
			}
			continue // the node may be mid-restart; back off and re-dial
		}
		if f.id, f.ch, err = redialed.send(ctx, &f.req); err == nil {
			resp, err = redialed.await(ctx, f.id, f.ch)
		}
		if redialed.alive() {
			if use, ierr := m.install(f.s, redialed); ierr != nil || use != redialed {
				// The slot moved on (a racing caller installed its own dial,
				// or the mux closed); this connection served its one retry.
				redialed.fail(ErrClientClosed)
			}
		}
		if err == nil || ctx.Err() != nil || errors.Is(err, ErrFrameTooLarge) {
			return resp, err
		}
	}
	return resp, wrapUnavail(err)
}

// SleepJittered sleeps a uniformly random duration in [d/2, d), bailing
// out early with ctx.Err() on cancellation; d <= 0 does not sleep.
func SleepJittered(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d/2 + time.Duration(rand.Int63n(int64(d/2)+1)))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// idempotent reports whether op can safely be re-sent after a failure
// whose outcome is unknown. Item reads and pings qualify; updates do not
// (the first send may have committed). Promotion is idempotent by
// construction (promoting a primary is a no-op), so it may be resent.
func idempotent(op Op) bool {
	switch op {
	case OpGet, OpGetBatch, OpPing, OpStats, OpPromote:
		return true
	default:
		return false
	}
}

// DBClient talks to a tdbd or a tcached — both speak the backend
// protocol. It implements core.Backend (and its batch and updater
// extensions), so a remote database, or an edge cache as a mid-tier, can
// back a local cache; against a tcached it also runs whole read
// transactions (ReadTxn). Safe for concurrent use; calls are multiplexed
// over a small fixed set of connections, and failed connections are
// redialed transparently.
type DBClient struct {
	*mux
}

var (
	_ core.Backend        = (*DBClient)(nil)
	_ core.BatchBackend   = (*DBClient)(nil)
	_ core.UpdaterBackend = (*DBClient)(nil)
	_ core.CommitBackend  = (*DBClient)(nil)
)

// DialDB connects to a backend-protocol server at addr — a tdbd, or a
// tcached acting as the mid-tier of a cluster — with conns multiplexed
// connections (conns < 1 means 1) and negotiates the protocol version.
// ctx bounds the initial dial and handshake.
func DialDB(ctx context.Context, addr string, conns int, opts ...ClientOption) (*DBClient, error) {
	cfg := defaultClientConfig()
	for _, o := range opts {
		o(&cfg)
	}
	m, err := newMux(ctx, addr, conns, cfg)
	if err != nil {
		return nil, err
	}
	return &DBClient{m}, nil
}

// PoolSize returns the configured number of multiplexed connections.
func (c *DBClient) PoolSize() int { return len(c.slots) }

// ReadItem implements core.Backend: a lock-free committed read, one round
// trip.
func (c *DBClient) ReadItem(ctx context.Context, key kv.Key) (kv.Item, bool, error) {
	return c.ReadItemFloor(ctx, key, kv.Version{})
}

// ReadItemFloor is ReadItem with a read floor: a tcached mid-tier serves
// its cached copy only if its version is at least floor, refetching from
// its own backend otherwise. A tdbd ignores the floor (its reads are
// always current). The zero floor is plain ReadItem.
func (c *DBClient) ReadItemFloor(ctx context.Context, key kv.Key, floor kv.Version) (kv.Item, bool, error) {
	resp, err := c.roundTrip(ctx, Request{Op: OpGet, Key: key, MinVersion: floor})
	if err != nil {
		return kv.Item{}, false, err
	}
	switch resp.Code {
	case CodeOK:
		return resp.Item, true, nil
	case CodeNotFound:
		return kv.Item{}, false, nil
	default:
		return kv.Item{}, false, fmt.Errorf("transport: get: %s", resp.Err)
	}
}

// ReadItems implements core.BatchBackend: all keys in one round trip.
func (c *DBClient) ReadItems(ctx context.Context, keys []kv.Key) ([]kv.Lookup, error) {
	var b BatchRead
	c.StartReadItemsFloor(ctx, &b, keys, kv.Version{})
	return b.Wait(ctx)
}

// BatchRead is one batch read split at the socket: after
// StartReadItemsFloor the request is on the wire, and Wait collects the
// answer — so a caller fanning a read out over several nodes starts every
// sub-batch before it waits for the first, all on its own goroutine. The
// zero value is ready, and reusable after Wait; keys must stay untouched
// until then.
type BatchRead struct {
	m *mux
	f inflight
}

// StartReadItemsFloor sends ReadItems with a read floor (see
// ReadItemFloor) and returns without waiting; a failure to send is
// reported by b.Wait.
func (c *DBClient) StartReadItemsFloor(ctx context.Context, b *BatchRead, keys []kv.Key, floor kv.Version) {
	b.m = c.mux
	b.f = inflight{req: Request{Op: OpGetBatch, Keys: keys, MinVersion: floor}}
	b.m.start(ctx, &b.f)
}

// Wait returns the batch's lookups, one per key, positionally.
func (b *BatchRead) Wait(ctx context.Context) ([]kv.Lookup, error) {
	keys := b.f.req.Keys
	resp, err := b.m.wait(ctx, &b.f)
	if err != nil {
		return nil, err
	}
	if resp.Code != CodeOK {
		return nil, fmt.Errorf("transport: get-batch: %s", resp.Err)
	}
	if len(resp.Batch) != len(keys) {
		return nil, fmt.Errorf("transport: get-batch: %d results for %d keys", len(resp.Batch), len(keys))
	}
	return resp.Batch, nil
}

// ReadTxn reads keys, in order, as one read-only transaction on a
// tcached, in one round trip (OpReadTxn): the transaction begins and
// ends there — committed if every read succeeds, aborted on a detected
// inconsistency (ErrAborted), a missing key (ErrNotFound) or any other
// failure.
func (c *DBClient) ReadTxn(ctx context.Context, keys []kv.Key) ([]kv.Value, error) {
	resp, err := c.roundTrip(ctx, Request{Op: OpReadTxn, Keys: keys})
	if err != nil {
		return nil, err
	}
	switch {
	case resp.Code == CodeAborted:
		return nil, fmt.Errorf("%w: %s", ErrAborted, resp.Err)
	case resp.Code == CodeNotFound:
		return nil, ErrNotFound
	case resp.Code != CodeOK:
		return nil, fmt.Errorf("transport: read-txn: %s", resp.Err)
	case len(resp.Values) != len(keys):
		return nil, fmt.Errorf("transport: read-txn: %d values for %d keys", len(resp.Values), len(keys))
	}
	return resp.Values, nil
}

// CommitUpdate implements core.CommitBackend over the wire: one OpUpdate
// round trip carrying the closure's observed read versions; the server
// re-validates them under lock and commits the writes atomically,
// answering with the commit version and each write's stored dependency
// list. A validation failure comes back as a *db.ConflictError (wrapping
// ErrConflict and db.ErrConflict) naming the stale key and its committed
// version, so the caller can invalidate its copy before retrying. The
// call is not idempotent: a transport failure after the frame was sent
// leaves the outcome unknown, so it is never blind-resent.
func (c *DBClient) CommitUpdate(ctx context.Context, reads []kv.ObservedRead, writes []kv.KeyValue) (kv.CommitResult, error) {
	resp, err := c.roundTrip(ctx, Request{Op: OpUpdate, ReadVersions: reads, Writes: writes})
	if err != nil {
		return kv.CommitResult{}, err
	}
	return decodeUpdate(resp)
}

// ValidatedUpdate implements core.UpdaterBackend: CommitUpdate without
// the lists.
func (c *DBClient) ValidatedUpdate(ctx context.Context, reads []kv.ObservedRead, writes []kv.KeyValue) (kv.Version, error) {
	res, err := c.CommitUpdate(ctx, reads, writes)
	return res.Version, err
}

// decodeUpdate maps an OpUpdate response, rehydrating the validation
// conflict detail when the server supplied one. The lists of a commit
// own their keys, so a cache that installs one of many written items
// pins none of the frame.
func decodeUpdate(resp Response) (kv.CommitResult, error) {
	switch resp.Code {
	case CodeOK:
		return kv.CommitResult{Version: resp.Version, Deps: resp.WriteDeps}, nil
	case CodeNotPrimary:
		// Rehydrate the typed rejection so callers can read the leader
		// address and redirect; it wraps both the transport and the db
		// not-primary identities.
		return kv.CommitResult{}, fmt.Errorf("%w: %w", ErrNotPrimary, &db.NotPrimaryError{Leader: resp.Leader})
	case CodeConflict:
		if resp.ConflictKey != "" {
			// Wrap under both conflict identities: transport callers match
			// ErrConflict, the shared retry driver matches db.ErrConflict,
			// and errors.As still reaches the detail.
			return kv.CommitResult{}, fmt.Errorf("%w: %w",
				ErrConflict, &db.ConflictError{Key: resp.ConflictKey, Current: resp.ConflictVersion, Found: resp.ConflictFound})
		}
		return kv.CommitResult{}, fmt.Errorf("%w: %s", ErrConflict, resp.Err)
	default:
		return kv.CommitResult{}, fmt.Errorf("transport: update: %s", resp.Err)
	}
}

// SubscribeInvalidations opens a dedicated connection to a tdbd and
// streams invalidations into deliver until ctx is cancelled or stop is
// called — Resubscribe against the one fixed address. The server batches
// invalidations that accumulate while a push is in flight into a single
// frame; deliver is called once per invalidation, on the receive
// goroutine.
func SubscribeInvalidations(ctx context.Context, addr, name string, deliver func(Invalidation)) (stop func(), err error) {
	return new(SubGroup).Resubscribe(ctx, name, func(ctx context.Context, name string) (*InvStream, error) {
		return OpenInvalidationStream(ctx, addr, name)
	}, deliver)
}

// SubGroup is the set of subscriptions one client owns. Close waits
// for every Resubscribe loop started in the group (the owner cancels
// their ctx first) and makes any later Resubscribe fail with
// ErrClientClosed. The zero value is ready to use.
type SubGroup struct {
	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// Close marks the group closed and waits for its stream goroutines.
func (g *SubGroup) Close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.wg.Wait()
}

// Resubscribe keeps one invalidation subscription alive until ctx is
// cancelled or stop is called (stop waits for the stream goroutine).
// open registers the given subscriber name wherever the caller's
// topology says the stream should live now — a fixed address, the next
// node of a failover list, the first live node of a fleet. When the
// stream breaks (server restart, network blip, failover) it is reopened
// automatically with jittered exponential backoff, 10 ms to 1 s, so a
// cache stays attached to its invalidation feed across reconnects;
// invalidations sent during the gap are lost, which is exactly the lossy
// asynchronous channel the T-Cache protocol is designed to survive.
//
// The first open uses name verbatim and its error is returned, so a
// second live cache with the same name is rejected (the
// duplicate-subscriber protection). Every reopen attempt appends the
// next "#<epoch>" to the name: after a half-open disconnect the server
// may still hold an earlier registration (it only notices the dead peer
// when a push fails or its read errors), and retrying a name it refused
// would be locked out by our own corpse forever.
func (g *SubGroup) Resubscribe(ctx context.Context, name string, open func(ctx context.Context, name string) (*InvStream, error), deliver func(Invalidation)) (stop func(), err error) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, ErrClientClosed
	}
	g.wg.Add(1)
	g.mu.Unlock()
	sctx, cancel := context.WithCancel(ctx)
	st, err := open(sctx, name)
	if err != nil {
		cancel()
		g.wg.Done()
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		defer g.wg.Done()
		defer close(done)
		for epoch := 1; ; {
			st.Run(sctx, deliver)
			for backoff := 10 * time.Millisecond; ; backoff = min(2*backoff, time.Second) {
				if sctx.Err() != nil {
					return
				}
				next, err := open(sctx, fmt.Sprintf("%s#%d", name, epoch))
				epoch++
				if err == nil {
					st = next
					break
				}
				if SleepJittered(sctx, backoff) != nil {
					return
				}
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}, nil
}

// InvStream is ONE open subscription connection — what a Resubscribe
// open function returns. It bypasses the mux machinery entirely: after
// the subscribe exchange the connection carries nothing but server-push
// invalidation frames, read synchronously by Run.
type InvStream struct {
	c  net.Conn
	fr *frameReader
}

// OpenInvalidationStream dials addr (a tdbd, or a tcached relaying its
// backend's stream) and registers subscriber name. A refused subscribe
// (duplicate name, version mismatch) errors immediately; an unreachable
// peer errors with ErrUnavailable in the chain. ctx bounds the exchange.
func OpenInvalidationStream(ctx context.Context, addr, name string) (*InvStream, error) {
	c, fr, resp, err := dialPeer(ctx, addr, &Request{Op: OpSubscribe, Subscriber: name})
	if err != nil {
		return nil, err
	}
	if resp.Code != CodeOK {
		// The server answered and refused (duplicate subscriber name,
		// usually): deliberately NOT ErrUnavailable — retrying elsewhere
		// or later would not help.
		c.Close()
		return nil, fmt.Errorf("transport: subscribe: %s", resp.Err)
	}
	return &InvStream{c: c, fr: fr}, nil
}

// Close tears the connection down (Run, if in flight, returns).
func (s *InvStream) Close() { s.c.Close() }

// Run delivers invalidations until the stream breaks or ctx is
// cancelled; the connection is closed when it returns. Run consumes the
// stream — call it once.
func (s *InvStream) Run(ctx context.Context, deliver func(Invalidation)) {
	stop := context.AfterFunc(ctx, s.Close) // unblock the reader on cancel
	defer func() {
		stop()
		s.Close()
	}()
	for {
		typ, _, payload, err := s.fr.Read()
		if err != nil {
			return
		}
		if typ != frameInvalidations {
			continue
		}
		invs, err := decodeInvalidations(payload)
		if err != nil {
			return
		}
		for _, inv := range invs {
			deliver(inv)
		}
	}
}
