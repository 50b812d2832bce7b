package tcache

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tcache/internal/db"
	"tcache/internal/telemetry"
	"tcache/internal/transport"
)

// Remote is a backend database reached over TCP — the paper's datacenter
// side, seen from the edge. It implements Backend (and BatchBackend), so
// attaching a T-Cache to a remote database is symmetric with the
// in-process case:
//
//	remote, err := tcache.Dial(ctx, "db.example.com:7070")
//	cache, err := tcache.NewCache(remote)
//
// Reads are multiplexed over a small fixed set of connections (the
// wire protocol carries a request id per frame) that redial
// transparently after failures; invalidation subscriptions resubscribe
// automatically after the stream breaks (server restart, network blip).
// Invalidations sent while a subscription is down are lost — exactly the
// lossy asynchronous channel the T-Cache protocol is designed to
// survive: the cache's dependency checks still abort (or heal) the
// transactions that would observe the resulting staleness.
//
// Dial accepts a comma-separated address list ("db1:7070,db2:7070") for
// a replicated DB tier: operations fail over between the addresses, a
// write rejected by a standby redirects to the leader it names, and
// invalidation subscriptions re-home to whichever node the client
// currently talks to — so an edge rides through a primary crash and
// promotion without losing its read-your-invalidations guarantee
// (standbys relay the replicated invalidation stream to their own
// subscribers).
type Remote struct {
	opts dialOptions

	// ctx parents every subscription's resubscribe loop; Close cancels it.
	ctx    context.Context
	cancel context.CancelFunc

	// cliMu guards the current endpoint. addrs can grow: a standby's
	// rejection may name a leader the caller never listed.
	cliMu sync.Mutex
	addrs []string
	cur   int
	cli   *transport.DBClient

	subs transport.SubGroup

	// rtHist, when set, times every wire round trip — applied to the
	// current client and to every client a failover dials later.
	rtHist atomic.Pointer[telemetry.Histogram]
}

// setRoundTripHistogram wires a Telemetry's round-trip histogram into
// this Remote (and any client future failovers dial). NewCache calls it
// through the roundTripSetter interface.
func (r *Remote) setRoundTripHistogram(h *telemetry.Histogram) {
	r.rtHist.Store(h)
	r.cliMu.Lock()
	cli := r.cli
	r.cliMu.Unlock()
	if cli != nil {
		cli.SetRoundTripHistogram(h)
	}
}

var (
	_ Backend      = (*Remote)(nil)
	_ BatchBackend = (*Remote)(nil)
)

// ErrUnavailable marks transport-level failures — dials refused, broken
// or timed-out connections — as opposed to the database answering with
// an application error. Callers of a replicated tier match it to decide
// whether retrying (now pointed at a failed-over node) makes sense.
var ErrUnavailable = transport.ErrUnavailable

// ErrNotPrimary marks a write rejected by a standby. The Remote retries
// these transparently against the leader the standby names; it surfaces
// only when no reachable peer will take writes (e.g. mid-promotion).
var ErrNotPrimary = db.ErrNotPrimary

// dialOptions collects Dial settings.
type dialOptions struct {
	poolSize     int
	dialAttempts int
	dialBackoff  time.Duration
}

// DialOption configures Dial.
type DialOption func(*dialOptions)

// WithPoolSize sets the number of multiplexed connections shared by
// reads and updates (default 4). Unlike a classic pool, a connection is
// not occupied per in-flight request: any number of concurrent calls
// interleave over these few connections, demultiplexed by request id.
// Invalidation subscriptions use one dedicated connection each, outside
// the set.
func WithPoolSize(n int) DialOption {
	return func(o *dialOptions) { o.poolSize = n }
}

// WithDialRetry makes Dial (and each later failover) retry a failed
// connection: up to attempts passes over the address list, with a
// jittered exponential backoff starting at backoff between passes,
// honoring the caller's context throughout. The default is one pass and
// 50ms — fail fast, like the transport mux's WithMaxRedials default
// fails fast within a call. A booting deployment whose database comes
// up last sets a few attempts instead of wrapping Dial in its own loop.
func WithDialRetry(attempts int, backoff time.Duration) DialOption {
	return func(o *dialOptions) {
		if attempts > 0 {
			o.dialAttempts = attempts
		}
		if backoff > 0 {
			o.dialBackoff = backoff
		}
	}
}

// Dial connects to a database served at addr (a tdbd daemon, or any DB
// exposed with ServeDB) and returns it as a Backend. addr may be a
// comma-separated list of replicas; the first reachable one is used and
// the rest are failover targets. ctx bounds the initial dial only; the
// connection's lifetime is governed by Close.
func Dial(ctx context.Context, addr string, opts ...DialOption) (*Remote, error) {
	o := dialOptions{poolSize: 4, dialAttempts: 1, dialBackoff: 50 * time.Millisecond}
	for _, opt := range opts {
		opt(&o)
	}
	addrs := splitAddrList(addr)
	if len(addrs) == 0 {
		return nil, errors.New("tcache: Dial needs at least one address")
	}
	//lint:ignore ctxdiscipline the subscription lifetime spans the Remote, ending at Close, not at the dialing ctx
	rctx, cancel := context.WithCancel(context.Background())
	r := &Remote{
		opts:   o,
		addrs:  addrs,
		ctx:    rctx,
		cancel: cancel,
	}
	cli, idx, err := r.dialAny(ctx, 0)
	if err != nil {
		cancel()
		return nil, err
	}
	r.cli, r.cur = cli, idx
	return r, nil
}

// splitAddrList splits a comma-separated address list, dropping empty
// elements and surrounding whitespace.
func splitAddrList(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// dialAny tries the address list round-robin from start, for up to
// opts.dialAttempts passes with jittered exponential backoff between
// them. It returns the first client that connects and its address index.
func (r *Remote) dialAny(ctx context.Context, start int) (*transport.DBClient, int, error) {
	r.cliMu.Lock()
	addrs := append([]string(nil), r.addrs...)
	r.cliMu.Unlock()
	backoff := r.opts.dialBackoff
	var lastErr error
	for attempt := 0; attempt < r.opts.dialAttempts; attempt++ {
		if attempt > 0 {
			if err := transport.SleepJittered(ctx, backoff); err != nil {
				return nil, 0, lastErr
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
		}
		for k := 0; k < len(addrs); k++ {
			idx := (start + k) % len(addrs)
			cli, err := transport.DialDB(ctx, addrs[idx], r.opts.poolSize)
			if err == nil {
				if h := r.rtHist.Load(); h != nil {
					cli.SetRoundTripHistogram(h)
				}
				return cli, idx, nil
			}
			lastErr = err
			if ctx.Err() != nil {
				return nil, 0, lastErr
			}
		}
	}
	return nil, 0, lastErr
}

// client returns the current endpoint.
func (r *Remote) client() (*transport.DBClient, error) {
	r.cliMu.Lock()
	defer r.cliMu.Unlock()
	if r.cli == nil {
		return nil, fmt.Errorf("tcache: %w", transport.ErrClientClosed)
	}
	return r.cli, nil
}

// currentAddr returns the address the client currently points at.
func (r *Remote) currentAddr() string {
	r.cliMu.Lock()
	defer r.cliMu.Unlock()
	return r.addrs[r.cur]
}

// failover replaces the endpoint after failed stopped serving. leader,
// when non-empty, is tried first (a standby's rejection names it); an
// unlisted leader is learned into the address list. Concurrent
// failovers collapse: whoever replaces the client first wins and the
// others adopt the winner.
func (r *Remote) failover(ctx context.Context, failed *transport.DBClient, leader string) (*transport.DBClient, error) {
	r.cliMu.Lock()
	if r.cli == nil {
		r.cliMu.Unlock()
		return nil, fmt.Errorf("tcache: %w", transport.ErrClientClosed)
	}
	if r.cli != failed {
		cli := r.cli
		r.cliMu.Unlock()
		return cli, nil
	}
	start := (r.cur + 1) % len(r.addrs)
	if leader != "" {
		found := -1
		for i, a := range r.addrs {
			if a == leader {
				found = i
				break
			}
		}
		if found < 0 {
			r.addrs = append(r.addrs, leader)
			found = len(r.addrs) - 1
		}
		start = found
	}
	r.cliMu.Unlock()

	// Dial outside the lock so concurrent calls aren't serialized behind
	// a slow connect.
	cli, idx, err := r.dialAny(ctx, start)
	if err != nil {
		return nil, err
	}
	r.cliMu.Lock()
	if r.cli == nil {
		r.cliMu.Unlock()
		cli.Close()
		return nil, fmt.Errorf("tcache: %w", transport.ErrClientClosed)
	}
	if r.cli != failed {
		winner := r.cli
		r.cliMu.Unlock()
		cli.Close()
		return winner, nil
	}
	old := r.cli
	r.cli, r.cur = cli, idx
	r.cliMu.Unlock()
	old.Close()
	return cli, nil
}

// do runs op against the current endpoint, failing over and retrying
// when the failure class makes that safe: not-primary rejections always
// (the standby refused before any state changed, and it names the
// leader), transport-unavailable failures only for idempotent ops (a
// lost update response leaves the outcome unknown). A non-idempotent op
// that finds the peer unavailable is NOT retried, but the endpoint
// still fails over before the error is reported — so when the caller
// decides the retry is safe (OCC validation makes a doubled Update
// harmless), its next attempt lands on a survivor instead of the same
// dead connection.
func (r *Remote) do(ctx context.Context, idempotent bool, op func(*transport.DBClient) error) error {
	cli, err := r.client()
	if err != nil {
		return err
	}
	r.cliMu.Lock()
	maxHops := len(r.addrs) + 1
	r.cliMu.Unlock()
	for hop := 0; ; hop++ {
		err = op(cli)
		if err == nil || ctx.Err() != nil || hop >= maxHops {
			return err
		}
		var npe *db.NotPrimaryError
		redirect := errors.As(err, &npe)
		if !redirect && !(idempotent && errors.Is(err, transport.ErrUnavailable)) {
			if errors.Is(err, transport.ErrUnavailable) {
				// Unknown outcome: don't re-run op, but move off the dead
				// endpoint for the caller's own retry.
				_, _ = r.failover(ctx, cli, "")
			}
			return err
		}
		leader := ""
		if redirect {
			leader = npe.Leader
		}
		next, ferr := r.failover(ctx, cli, leader)
		if ferr != nil {
			return err // report the operation's failure, not the redial's
		}
		cli = next
	}
}

// Close cancels every subscription and closes all pooled connections.
func (r *Remote) Close() {
	r.cancel()
	r.subs.Close()
	r.cliMu.Lock()
	cli := r.cli
	r.cli = nil
	r.cliMu.Unlock()
	if cli != nil {
		cli.Close()
	}
}

// ReadItem implements Backend: one round trip for the committed item.
func (r *Remote) ReadItem(ctx context.Context, key Key) (Item, bool, error) {
	var item Item
	var ok bool
	err := r.do(ctx, true, func(cli *transport.DBClient) error {
		var e error
		item, ok, e = cli.ReadItem(ctx, key)
		return e
	})
	return item, ok, err
}

// ReadItems implements BatchBackend: all keys in one round trip.
func (r *Remote) ReadItems(ctx context.Context, keys []Key) ([]Lookup, error) {
	var lookups []Lookup
	err := r.do(ctx, true, func(cli *transport.DBClient) error {
		var e error
		lookups, e = cli.ReadItems(ctx, keys)
		return e
	})
	return lookups, err
}

// Subscribe implements Backend: it opens a dedicated connection that
// streams the database's invalidations into sink, resubscribing
// automatically whenever the stream breaks (transport.SubGroup.Resubscribe),
// until the Remote is closed (or the returned cancel is called). A name
// already registered at the server errors. With multiple addresses the
// subscription follows the failover: each (re)connect first tries the
// node the client currently talks to, then the rest of the list — so
// after a promotion the edge is attached to the new primary's (relayed)
// invalidation stream.
func (r *Remote) Subscribe(name string, sink func(Invalidation)) (cancel func(), err error) {
	return r.subs.Resubscribe(r.ctx, name, r.openInvStream, sink)
}

// openInvStream opens an invalidation stream under name on the first
// node that accepts it, trying the current endpoint's address first,
// then the rest of the list. A node that answers with a refusal (a
// duplicate name) surfaces that error; unreachable nodes are skipped.
func (r *Remote) openInvStream(ctx context.Context, name string) (*transport.InvStream, error) {
	r.cliMu.Lock()
	addrs := append([]string(nil), r.addrs...)
	cur := r.cur
	r.cliMu.Unlock()
	var err error
	for k := range addrs {
		var s *transport.InvStream
		if s, err = transport.OpenInvalidationStream(ctx, addrs[(cur+k)%len(addrs)], name); err == nil {
			return s, nil
		}
		if ctx.Err() != nil || !errors.Is(err, transport.ErrUnavailable) {
			break
		}
	}
	return nil, err
}

// CommitUpdate implements CommitBackend: one OpUpdate round trip
// carrying the observed read versions, which the database validates
// under lock before committing the writes atomically; the answer carries
// the commit version and each write's stored dependency list. Most
// callers want Update (the closure form, which records the observations
// and retries conflicts); this is the raw capability a Cache attached to
// this Remote commits through.
//
// A standby's rejection (db.ErrNotPrimary) redirects to the leader it
// names and the update is re-sent there — safe, because the rejection
// happened before anything committed. A transport failure with the
// outcome unknown is NOT retried.
func (r *Remote) CommitUpdate(ctx context.Context, reads []ObservedRead, writes []KeyValue) (CommitResult, error) {
	var res CommitResult
	err := r.do(ctx, false, func(cli *transport.DBClient) error {
		var e error
		res, e = cli.CommitUpdate(ctx, reads, writes)
		return e
	})
	return res, err
}

// ValidatedUpdate implements UpdaterBackend: CommitUpdate without the
// lists.
func (r *Remote) ValidatedUpdate(ctx context.Context, reads []ObservedRead, writes []KeyValue) (Version, error) {
	res, err := r.CommitUpdate(ctx, reads, writes)
	return res.Version, err
}

// Ping checks liveness with one round trip.
func (r *Remote) Ping(ctx context.Context) error {
	return r.do(ctx, true, func(cli *transport.DBClient) error {
		return cli.Ping(ctx)
	})
}

// Status reports the current endpoint's replication role and durability
// health.
func (r *Remote) Status(ctx context.Context) (transport.NodeStatus, error) {
	var st transport.NodeStatus
	err := r.do(ctx, true, func(cli *transport.DBClient) error {
		var e error
		st, e = cli.Status(ctx)
		return e
	})
	return st, err
}

// ServerStats is a server's metrics registry as OpStats reports it:
// counters, gauges and latency histograms, each keyed by metric name
// (the names /metrics serves under the tcache_ prefix).
type ServerStats = telemetry.Snapshot

// Stats fetches the remote server's metrics in one round trip — the
// server-side complement of the local Cache.Stats view.
func (r *Remote) Stats(ctx context.Context) (ServerStats, error) {
	var stats ServerStats
	err := r.do(ctx, true, func(cli *transport.DBClient) error {
		var e error
		stats, e = cli.Stats(ctx)
		return e
	})
	return stats, err
}

// ServeDB exposes d over TCP at addr (for example "127.0.0.1:0" to pick
// a free port) so remote caches can Dial it — the programmatic
// equivalent of running cmd/tdbd. It returns the bound address and a
// stop function that closes the listener and every connection.
func ServeDB(d *DB, addr string) (bound string, stop func(), err error) {
	n, err := transport.ServeDB(d.inner, transport.DBNodeConfig{Listen: addr})
	if err != nil {
		return "", nil, err
	}
	return n.Addr(), n.Close, nil
}
