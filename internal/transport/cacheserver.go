package transport

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/kv"
	"tcache/internal/telemetry"
)

// CacheServer serves a core.Cache over TCP. The cache's backend is
// typically a DBClient pointed at a tdbd instance, with the invalidation
// stream bridged by SubscribeInvalidations.
//
// Beyond the client-facing read transaction (OpReadTxn), a CacheServer
// also speaks the backend protocol — item-granular OpGet and OpGetBatch
// (with read floors), relayed OpUpdate, and OpSubscribe push relays — so
// a tcached can itself be the Backend of downstream caches: the mid-tier
// of a clustered edge deployment. The owner bridges its upstream invalidation stream into
// Broadcast to feed the relays.
type CacheServer struct {
	*server
	cache *core.Cache
	// commit is the cache backend's commit call, which OpUpdate relays
	// through (nil when the backend takes no updates).
	commit core.CommitFunc
	// txnSeq mints the IDs of OpReadTxn's transactions.
	txnSeq atomic.Uint64
}

// NewCacheServer wraps c; call Listen to start accepting. OpStats is
// answered from a registry holding the cache's metrics and the server's
// own.
func NewCacheServer(c *core.Cache, logf func(string, ...any)) *CacheServer {
	s := &CacheServer{server: newServer("tcached", logf), cache: c, commit: core.Committer(c.Backend())}
	s.serve, s.inline = s.dispatch, cacheInline
	reg := telemetry.NewRegistry()
	c.RegisterMetrics(reg)
	s.RegisterMetrics(reg)
	s.SetRegistry(reg)
	return s
}

// Broadcast relays one invalidation to every downstream subscriber. The
// owning daemon calls it from its upstream subscription sink (after
// applying the invalidation to its own cache), turning the server into a
// relay hop of the database's asynchronous invalidation pipeline — as
// lossy as the rest of it, which the T-Cache protocol tolerates by
// design.
func (s *CacheServer) Broadcast(inv Invalidation) {
	s.subMu.Lock()
	for _, p := range s.subs {
		p.push(inv)
	}
	s.subMu.Unlock()
}

// RegisterMetrics registers the server-local gauges: connected
// downstream relays and their queued-invalidation backlog.
func (s *CacheServer) RegisterMetrics(reg *telemetry.Registry) {
	reg.Gauge("relay_subscribers", func() uint64 { return uint64(s.Subscribers()) })
	reg.Gauge("relay_queue", s.queuedInvalidations)
	s.registerDropped(reg)
}

// cacheInline: the local-only ops. Reads and relayed updates go to
// dispatch workers: a miss blocks on the backend fetch.
func cacheInline(op Op) bool {
	switch op {
	case OpPing, OpStats:
		return true
	default:
		return false
	}
}

func (s *CacheServer) dispatch(ctx context.Context, req Request) Response {
	//tcache:exhaustive
	switch req.Op {
	case OpPing:
		return Response{Code: CodeOK}

	case OpReadTxn:
		return readResponse(s.readTxn(ctx, req.Keys))

	case OpGet:
		// Item-granular so a downstream cache's backend gets version and
		// dependency list; a plain read (tcache-cli cget) uses the Value.
		item, ok, err := s.cache.GetItem(ctx, req.Key, req.MinVersion)
		switch {
		case err != nil:
			return errorResponse("%v", err)
		case !ok:
			return Response{Code: CodeNotFound}
		default:
			return Response{Code: CodeOK, Item: item}
		}

	case OpGetBatch:
		lookups, err := s.cache.GetItems(ctx, req.Keys, req.MinVersion)
		if err != nil {
			return errorResponse("%v", err)
		}
		return Response{Code: CodeOK, Batch: lookups}

	case OpUpdate:
		return updateResponse(s.relayUpdate(ctx, req))

	case OpStats:
		return s.statsResponse()

	case OpSubscribe:
		// Switches the connection's mode before dispatch (see
		// server.handle).
		return errorResponse("tcached: op %q never reaches dispatch", req.Op)

	case OpReplicate, OpPromote:
		// DB-tier replication ops: caches neither stream WALs nor hold
		// roles; replicas connect to a tdbd directly.
		return errorResponse("tcached: op %q is a db-tier operation", req.Op)

	default:
		return errorResponse("tcached: unknown op %q", req.Op)
	}
}

// readTxn runs keys as one read-only transaction, as tcache.Cache.ReadTxn
// runs GetMulti(keys): owned by this request under an ID the server mints,
// so no two requests share a record and none outlives its request. A
// detected violation, a missing key or a cancelled ctx ends it aborted.
func (s *CacheServer) readTxn(ctx context.Context, keys []kv.Key) ([]kv.Value, error) {
	t := s.cache.Begin(kv.TxnID(s.txnSeq.Add(1)), time.Time{})
	vals, err := t.ReadMulti(ctx, keys)
	if err == nil {
		err = ctx.Err()
	}
	if ferr := t.Finish(err == nil); ferr != nil {
		err = ferr
	}
	return vals, err
}

// relayUpdate forwards a validated update through this cache's backend —
// the mid-tier role of the write path: edge clients commit through
// whichever tcached they reach, which forwards the observed read
// versions and writes upstream (ultimately to the database, which
// validates and commits) and hands the answer — commit version and
// per-write dependency lists — back unchanged for the client's cache to
// install. The relay itself only invalidates: it is a round-robin hop,
// not the written keys' home, so keeping them would fill a bounded cache
// with entries no read is routed to. Applying the invalidations
// synchronously means the node that carried the update never serves the
// old value after acknowledging the new one; on a validation conflict it
// evicts its own stale copy of the conflicting key, so retries routed
// through it refetch instead of re-reading the same stale version.
func (s *CacheServer) relayUpdate(ctx context.Context, req Request) (kv.CommitResult, error) {
	if s.commit == nil {
		return kv.CommitResult{}, fmt.Errorf("tcached: backend %T does not support updates", s.cache.Backend())
	}
	res, err := s.commit(ctx, req.ReadVersions, req.Writes)
	if err != nil {
		var ce *db.ConflictError
		if errors.As(err, &ce) && ce.Found {
			s.cache.Invalidate(ce.Key, ce.Current)
		}
		return kv.CommitResult{}, err
	}
	for _, w := range req.Writes {
		s.cache.Invalidate(w.Key, res.Version)
	}
	return res, nil
}

// readResponse maps a read transaction's outcome onto the wire.
func readResponse(vals []kv.Value, err error) Response {
	switch {
	case err == nil:
		return Response{Code: CodeOK, Values: vals}
	case errors.Is(err, core.ErrTxnAborted):
		return Response{Code: CodeAborted, Err: err.Error()}
	case errors.Is(err, core.ErrNotFound):
		return Response{Code: CodeNotFound}
	default:
		return errorResponse("%v", err)
	}
}
