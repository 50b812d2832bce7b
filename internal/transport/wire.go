// Package transport serves the database and the cache over TCP, so the
// system can be deployed as the paper describes it: a backend database
// daemon (cmd/tdbd), edge cache daemons close to clients (cmd/tcached),
// and an asynchronous invalidation stream from the database to each
// cache. Framing is the versioned, length-prefixed binary protocol of
// codec.go over a plain TCP connection: requests carry ids and are
// multiplexed — many in-flight calls share one connection and responses
// arrive in completion order — except on subscription connections, which
// switch to a server-push stream of batched invalidation frames.
//
// One client type talks to both servers: DBClient (DialDB). Against a
// tdbd it is a cache's Backend; against a tcached it is the Backend of a
// downstream cache (the cluster router reads every edge through one) and
// also runs whole read transactions (ReadTxn, OpReadTxn) for clients
// without a cache of their own.
package transport

import (
	"fmt"

	"tcache/internal/db"
	"tcache/internal/kv"
	"tcache/internal/telemetry"
	"tcache/internal/wal"
)

// Op names a request operation.
type Op string

// Operations understood by the servers.
const (
	// OpPing checks liveness (both servers).
	OpPing Op = "ping"
	// OpGet reads one item: lock-free committed read on the DB server,
	// plain cache read on the cache server.
	OpGet Op = "get"
	// OpGetBatch reads many items in one round trip (DB server); the
	// response carries one Lookup per requested key, positionally.
	OpGetBatch Op = "get-batch"
	// OpUpdate runs one update transaction: the server validates the
	// observed ReadVersions under lock and commits the Writes atomically,
	// or rejects with CodeConflict. A cache server relays the op to its
	// own backend, so edge clients commit through the mid-tier.
	OpUpdate Op = "update"
	// OpSubscribe switches a DB-server connection into a push stream of
	// invalidations.
	OpSubscribe Op = "subscribe"
	// OpReadTxn is the cache server's read-only transaction: Keys are read
	// in order within one transaction that begins and ends with the
	// request — committed if every read succeeds, aborted otherwise.
	OpReadTxn Op = "read-txn"
	// OpStats fetches the cache server's counters.
	OpStats Op = "stats"
	// OpReplicate switches a DB-server connection into the replication
	// stream: the server answers with the stream mode
	// (resume or full snapshot), then pushes snapshot-entry and
	// WAL-record frames; the standby sends ack frames back on the same
	// connection. Primary only.
	OpReplicate Op = "replicate"
	// OpPromote turns a standby into a writable primary. Idempotent on a
	// primary.
	OpPromote Op = "promote"
)

// KeyValue is one write of an update transaction.
type KeyValue = kv.KeyValue

// ObservedRead is one validated read of an update transaction: the
// version (and presence) the client observed, which the server re-checks
// under lock before committing.
type ObservedRead = kv.ObservedRead

// Request is the client→server message.
type Request struct {
	Op  Op
	Key kv.Key
	// Keys is the key list of batch operations (OpGetBatch, OpReadTxn).
	Keys []kv.Key
	// Subscriber names the invalidation subscription (OpSubscribe).
	Subscriber string
	// Writes is the write set of an OpUpdate.
	Writes []KeyValue
	// ReadVersions is the observed read set of an OpUpdate: the server
	// re-reads each key under lock and commits the Writes only if every
	// version (and presence) still matches. Empty is a blind write.
	ReadVersions []ObservedRead
	// MinVersion is the read floor of OpGet and OpGetBatch on a cache
	// server: a cached entry older than this is refetched from the
	// backend instead of served, so a cluster client that already
	// observed a newer version (or relayed a newer invalidation) is never
	// handed stale data by a failed-over node. The zero version means no
	// floor; the DB server ignores it (its reads are always current).
	MinVersion kv.Version
	// ReplFrom is the resume cursor of an OpReplicate request (the
	// primary-log position after the last record this standby applied;
	// zero, or a segment no longer live, means a full state transfer),
	// ReplCounter the standby's version counter (db.JoinImage). The
	// replica's identity rides in Subscriber.
	ReplFrom    wal.Pos
	ReplCounter uint64
}

// Code classifies a response.
type Code int

// Response codes.
const (
	// CodeOK means the operation succeeded.
	CodeOK Code = iota + 1
	// CodeNotFound means the key exists nowhere.
	CodeNotFound
	// CodeAborted means the cache aborted the read-only transaction on a
	// detected inconsistency.
	CodeAborted
	// CodeConflict means the update transaction lost a concurrency fight
	// and should be retried.
	CodeConflict
	// CodeError carries any other failure in Err.
	CodeError
	// CodeNotPrimary rejects a write sent to a standby; Leader, when set,
	// names the primary to redirect to.
	CodeNotPrimary
)

func (c Code) String() string {
	switch c {
	case CodeOK:
		return "ok"
	case CodeNotFound:
		return "not-found"
	case CodeAborted:
		return "aborted"
	case CodeConflict:
		return "conflict"
	case CodeError:
		return "error"
	case CodeNotPrimary:
		return "not-primary"
	default:
		return fmt.Sprintf("Code(%d)", int(c))
	}
}

// Response is the server→client message.
type Response struct {
	Code    Code
	Err     string
	Item    kv.Item
	Version kv.Version
	// WriteDeps is set on an OpUpdate commit: the dependency list the
	// database stored with each of the request's Writes, positionally.
	// With Version and the writer's own values they are the committed
	// items, which the committing client's cache installs instead of
	// refetching. A relaying cache server passes them through unchanged.
	WriteDeps []kv.DepList
	// Batch is set for OpGetBatch: one Lookup per requested key.
	Batch []kv.Lookup
	// Values is set for OpReadTxn: one value per requested key.
	Values []kv.Value
	// Stats is set for OpStats: the server's registry snapshot. Nil
	// on every other answer.
	Stats *telemetry.Snapshot
	// ConflictKey and ConflictVersion detail a CodeConflict from an
	// OpUpdate: the observed read that failed
	// validation and the version now committed for it (ConflictFound
	// false means the key no longer exists). An optimistic client uses
	// them to invalidate its stale copy before retrying. Empty when the
	// conflict came from lock arbitration rather than validation.
	ConflictKey     kv.Key
	ConflictVersion kv.Version
	ConflictFound   bool
	// Role and Leader report the serving node's replication role on
	// OpPing, OpPromote, and CodeNotPrimary rejections; Leader is the
	// primary's advertised address when this node is a standby that knows
	// it. Healthy and HealthErr carry the node's durability health (the
	// WAL's sticky fail-stop error, if any). ReplLag is the primary's
	// version-counter distance to its slowest connected replica, and
	// ReplCounter the node's current version counter.
	Role        string
	Leader      string
	Healthy     bool
	HealthErr   string
	ReplLag     uint64
	ReplCounter uint64
	// ReplImage, on an OpReplicate acceptance, is the size in bytes of
	// the primary's snapshot file, which precedes the live record stream
	// in image frames; 0 means the stream resumes. ReplPos is where the
	// record stream starts: the resume cursor, or the image's cut.
	ReplImage uint64
	ReplPos   wal.Pos
}

// Invalidation is pushed on subscription connections.
type Invalidation = db.Invalidation
