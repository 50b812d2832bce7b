package transport

import (
	"context"
	"errors"

	"tcache/internal/db"
	"tcache/internal/kv"
	"tcache/internal/telemetry"
)

// DBServer serves a db.DB over TCP: lock-free item reads, validated
// updates, the invalidation push stream, and — for warm standbys — the
// replication stream (repl.go).
type DBServer struct {
	*server
	db *db.DB
}

// NewDBServer wraps d; call Listen to start accepting. OpStats is
// answered from a registry holding the database's metrics and the
// server's own.
func NewDBServer(d *db.DB, logf func(string, ...any)) *DBServer {
	s := &DBServer{server: newServer("tdbd", logf), db: d}
	s.serve, s.inline, s.attach, s.stream = s.dispatch, dbInline, d.Subscribe, s.serveReplication
	reg := telemetry.NewRegistry()
	d.RegisterMetrics(reg)
	s.RegisterMetrics(reg)
	s.SetRegistry(reg)
	return s
}

// RegisterMetrics registers the server-local gauges: live subscription
// streams and their queued-invalidation backlog.
func (s *DBServer) RegisterMetrics(reg *telemetry.Registry) {
	reg.Gauge("subscribers", func() uint64 { return uint64(s.Subscribers()) })
	reg.Gauge("subscriber_queue", s.queuedInvalidations)
	s.registerDropped(reg)
}

// dbInline: the lock-free reads and probes. OpUpdate can block on lock
// queues and must always run concurrently with the reader.
func dbInline(op Op) bool {
	switch op {
	case OpGet, OpGetBatch, OpPing, OpStats:
		return true
	default:
		return false
	}
}

func (s *DBServer) dispatch(ctx context.Context, req Request) Response {
	//tcache:exhaustive
	switch req.Op {
	case OpPing:
		// The ping doubles as a health and role probe: a sick WAL or a
		// standby role surfaces here before a client commits anything.
		st := s.db.ReplStatusNow()
		return Response{
			Code:        CodeOK,
			Role:        st.Role.String(),
			Leader:      st.Leader,
			Healthy:     st.Healthy,
			HealthErr:   st.Err,
			ReplLag:     st.Lag,
			ReplCounter: st.Counter,
		}

	case OpPromote:
		counter, err := s.db.Promote()
		if err != nil {
			return errorResponse("%v", err)
		}
		return Response{Code: CodeOK, Role: db.RolePrimary.String(), ReplCounter: counter}

	case OpGet:
		item, ok, err := s.db.ReadItem(ctx, req.Key)
		if err != nil {
			return errorResponse("%v", err)
		}
		if !ok {
			return Response{Code: CodeNotFound}
		}
		return Response{Code: CodeOK, Item: item}

	case OpGetBatch:
		lookups, err := s.db.ReadItems(ctx, req.Keys)
		if err != nil {
			return errorResponse("%v", err)
		}
		return Response{Code: CodeOK, Batch: lookups}

	case OpUpdate:
		// Observed read versions are re-checked under lock, then the
		// writes commit atomically.
		return updateResponse(s.db.CommitUpdate(ctx, req.ReadVersions, req.Writes))

	case OpStats:
		return s.statsResponse()

	case OpSubscribe, OpReplicate:
		// Both switch the connection's mode before dispatch (see
		// server.handle).
		return errorResponse("tdbd: op %q never reaches dispatch", req.Op)

	case OpReadTxn:
		// The cache tier's read transaction: the database speaks validated
		// updates, not cache transactions.
		return errorResponse("tdbd: op %q is a cache-tier operation", req.Op)

	default:
		return errorResponse("tdbd: unknown op %q", req.Op)
	}
}

// updateResponse maps an update outcome onto the wire, carrying the
// validation conflict detail (stale key + committed version) when there
// is one so optimistic clients can heal their caches before retrying.
func updateResponse(res kv.CommitResult, err error) Response {
	switch {
	case err == nil:
		return Response{Code: CodeOK, Version: res.Version, WriteDeps: res.Deps}
	case errors.Is(err, db.ErrNotPrimary):
		resp := Response{Code: CodeNotPrimary, Err: err.Error()}
		var npe *db.NotPrimaryError
		if errors.As(err, &npe) {
			resp.Leader = npe.Leader
		}
		return resp
	case errors.Is(err, db.ErrConflict):
		resp := Response{Code: CodeConflict, Err: err.Error()}
		var ce *db.ConflictError
		if errors.As(err, &ce) {
			resp.ConflictKey, resp.ConflictVersion, resp.ConflictFound = ce.Key, ce.Current, ce.Found
		}
		return resp
	default:
		return errorResponse("%v", err)
	}
}
