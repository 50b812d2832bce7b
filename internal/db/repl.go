package db

// DB-tier replication: primary/standby roles, the standby apply path,
// promotion, and synchronous-replication accounting.
//
// A primary streams its committed WAL records to warm standbys (the
// transport layer moves the bytes; see internal/transport); a standby
// whose position the log no longer holds first gets the primary's
// newest snapshot file (JoinImage) and tails from its cut. A standby
// applies received records through ApplyReplicated — appending them to
// its OWN log first, then applying to the stores and relaying
// invalidations to its subscribers — so its durable state, version
// counter, and eq. 1/eq. 2 floors stay an exact committed prefix of the
// primary's. Standbys serve reads; writes are rejected with a
// NotPrimaryError carrying the leader's address so clients redirect.
//
// Promotion (explicit, or automatic in cmd/tdbd on primary loss) flips
// the role under commitMu: it is strictly ordered against every
// in-flight replicated apply and every rejected commit, and the first
// version minted afterwards is strictly higher than every replayed one.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"tcache/internal/kv"
	"tcache/internal/wal"
)

// Role is a database's replication role.
type Role int32

const (
	// RolePrimary accepts writes and streams its WAL to standbys.
	RolePrimary Role = iota
	// RoleStandby applies replicated records and rejects writes.
	RoleStandby
)

func (r Role) String() string {
	if r == RoleStandby {
		return "standby"
	}
	return "primary"
}

// ErrNotPrimary is the base class of write rejections on a standby.
var ErrNotPrimary = errors.New("db: not primary")

// ErrNotStandby is returned by ApplyReplicated after promotion: the
// replication loop must stop feeding a node that now mints its own
// versions.
var ErrNotStandby = errors.New("db: not a standby")

// NotPrimaryError rejects a write on a standby, naming the primary (if
// known) so the client can redirect instead of retrying here forever.
type NotPrimaryError struct {
	Leader string // primary address ("" = unknown)
}

func (e *NotPrimaryError) Error() string {
	if e.Leader == "" {
		return "db: not primary"
	}
	return fmt.Sprintf("db: not primary (leader is %s)", e.Leader)
}

func (e *NotPrimaryError) Unwrap() error { return ErrNotPrimary }

// replState tracks connected replicas and synchronous-replication
// waiters on the primary.
type replState struct {
	mu      sync.Mutex
	leader  string             // leader address while this node is a standby
	acked   map[string]replAck // per-replica acknowledged cursor
	waiters []replWaiter       // commits waiting for minSync acks
	applied uint64             // records applied via ApplyReplicated (standby)
	streams uint64             // replication stream ids handed out
}

type replAck struct {
	stream  uint64 // the stream that reported it
	pos     wal.Pos
	counter uint64
}

type replWaiter struct {
	pos wal.Pos
	ch  chan struct{}
}

// Role returns the database's current replication role.
func (d *DB) Role() Role { return Role(d.role.Load()) }

// LeaderAddr returns the primary's address as known to this standby
// ("" when primary, or unknown).
func (d *DB) LeaderAddr() string {
	d.repl.mu.Lock()
	defer d.repl.mu.Unlock()
	return d.repl.leader
}

// SetStandby puts the database in standby (follower) mode, recording
// the leader address reported in write rejections. It is meant to be
// called once at startup, before the node serves traffic.
func (d *DB) SetStandby(leader string) {
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	d.role.Store(int32(RoleStandby))
	d.repl.mu.Lock()
	d.repl.leader = leader
	d.repl.mu.Unlock()
}

// VersionCounter returns the node's current version counter — on a
// standby, the highest replicated committed version.
func (d *DB) VersionCounter() uint64 { return d.versionC.Load() }

// Health returns the durability health of the node: nil while the WAL
// (if any) can still append, or the sticky fail-stop error. A sick
// primary should be failed over before its next commit discovers the
// fault the hard way.
func (d *DB) Health() error {
	if d.wal == nil {
		return nil
	}
	return d.wal.Health()
}

// Promote turns a standby into a writable primary at its replayed
// version; every version minted afterwards is strictly higher than
// every replicated one. Promoting a primary is a no-op. It returns the
// version counter the new primary starts from.
func (d *DB) Promote() (uint64, error) {
	if d.closed.Load() {
		return 0, ErrClosed
	}
	// Under commitMu: strictly ordered against in-flight replicated
	// applies (which hold it) and rejected commits (which check under it).
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	d.role.Store(int32(RolePrimary))
	d.repl.mu.Lock()
	d.repl.leader = ""
	d.repl.mu.Unlock()
	return d.versionC.Load(), nil
}

// ApplyReplicated applies a batch of committed records received from
// the primary, in log order: append to this node's own WAL (one group
// durability round trip for the whole batch), apply to the stores,
// raise the version counter, and relay invalidations to this node's
// subscribers. Re-applying an already-applied suffix is harmless
// (last-wins per key, counter raise is a max), which is what makes
// position-based resume after a dropped link safe.
//
// It holds commitMu for the whole apply, so promotion is strictly
// ordered against it; after promotion it fails with ErrNotStandby.
// The store keeps the records' values and lists as they are (decoded
// records own their bytes), so the caller must not write them again.
func (d *DB) ApplyReplicated(recs []wal.Record) (pos wal.Pos, err error) {
	if d.closed.Load() {
		return wal.Pos{}, ErrClosed
	}
	if len(recs) == 0 {
		return wal.Pos{}, nil
	}
	start := time.Now()
	defer func() { d.noteSegment(pos) }() // runs after commitMu is released
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	if Role(d.role.Load()) != RoleStandby {
		return wal.Pos{}, ErrNotStandby
	}
	if d.wal != nil {
		pos, err = d.wal.AppendBatch(recs)
		if err != nil {
			return wal.Pos{}, fmt.Errorf("db: replicated append: %w", err)
		}
	}
	counter := d.versionC.Load()
	for i := range recs {
		counter = max(counter, recs[i].Version.Counter)
		d.applyRecord(&recs[i])
	}
	if counter > d.versionC.Load() {
		d.versionC.Store(counter)
	}
	// Relay invalidations so edges subscribed to this standby keep their
	// read-your-invalidations guarantee through a failover.
	for i := range recs {
		rec := &recs[i]
		keys := make([]kv.Key, len(rec.Writes))
		for j := range rec.Writes {
			keys[j] = rec.Writes[j].Key
		}
		d.emitInvalidations(keys, rec.Version)
	}
	d.repl.mu.Lock()
	d.repl.applied += uint64(len(recs))
	d.repl.mu.Unlock()
	d.tel.ReplApply.ObserveSince(start)
	return pos, nil
}

// applyRecord stores rec's writes at its version, uncopied: last write
// wins, also over writes a standby's primary never made.
func (d *DB) applyRecord(rec *wal.Record) {
	for _, w := range rec.Writes {
		d.store.keep(w.Key, kv.Item{Value: w.Value, Version: rec.Version, Deps: w.Deps})
	}
}

// --- Primary-side stream support ---------------------------------------

// ErrNoWAL is returned when replication is requested from a database
// that was opened without a write-ahead log: there is nothing to
// stream from.
var ErrNoWAL = errors.New("db: replication requires a write-ahead log")

// JoinImage opens the newest snapshot file for a replica holding state
// through version counter `replica`, and the log position to tail from.
// It takes a snapshot first when there is none, or when the file is
// older than the replica, which the last-wins apply would roll back
// (not when the replica is ahead of this node: it holds writes this
// node never made). A lagged replica is never newer than the file and
// joins decide under snapMu, so they share snapshots. Close the file.
func (d *DB) JoinImage(replica uint64) (*os.File, wal.Pos, error) {
	if d.wal == nil {
		return nil, wal.Pos{}, ErrNoWAL
	}
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	f, cut, counter, err := d.wal.OpenSnapshot()
	if err == nil && (f == nil || counter < replica && replica <= d.versionC.Load()) {
		if f != nil {
			f.Close()
		}
		if err := d.snapshotLocked(); err != nil {
			return nil, wal.Pos{}, err
		}
		f, cut, _, err = d.wal.OpenSnapshot()
	}
	if err != nil {
		return nil, wal.Pos{}, fmt.Errorf("db: join image: %w", err)
	}
	return f, wal.Pos{Seq: cut}, nil
}

// WALResumable reports whether the log still holds position from, so a
// replica's tail can resume there instead of taking a full state
// transfer. False without a WAL. Advisory — see wal.Log.Resumable.
func (d *DB) WALResumable(from wal.Pos) bool {
	if d.wal == nil {
		return false
	}
	return d.wal.Resumable(from)
}

// WALTail opens a live tailer on this node's log at from; see
// wal.Tailer. The caller owns the tailer and must Close it.
func (d *DB) WALTail(from wal.Pos) (*wal.Tailer, error) {
	if d.wal == nil {
		return nil, ErrNoWAL
	}
	return d.wal.Tail(from), nil
}

// ReplStream returns a fresh replication stream id for NoteReplicaAck
// and DropReplica; ids increase in call order.
func (d *DB) ReplStream() uint64 {
	d.repl.mu.Lock()
	defer d.repl.mu.Unlock()
	d.repl.streams++
	return d.repl.streams
}

// NoteReplicaAck records that replica name, over replication stream
// `stream`, holds everything before pos (applied through version
// counter), waking any commit waiting on synchronous replication. A
// replica that reconnects keeps its name on a newer stream, and its old
// stream may still be tearing down: an ack from an older stream than the
// one on record is ignored.
func (d *DB) NoteReplicaAck(name string, stream uint64, pos wal.Pos, counter uint64) {
	s := &d.repl
	s.mu.Lock()
	if a, ok := s.acked[name]; ok && a.stream > stream {
		s.mu.Unlock()
		return
	}
	s.acked[name] = replAck{stream: stream, pos: pos, counter: counter}
	if len(s.waiters) > 0 {
		kept := s.waiters[:0]
		for _, w := range s.waiters {
			if s.satisfiedLocked(w.pos, d.cfg.ReplMinSync) {
				close(w.ch)
			} else {
				kept = append(kept, w)
			}
		}
		s.waiters = kept
	}
	s.mu.Unlock()
}

// DropReplica removes a disconnected replica from the ack registry —
// unless its entry came from a newer stream than `stream`, which a
// reconnect can open before the old stream's teardown gets here.
func (d *DB) DropReplica(name string, stream uint64) {
	d.repl.mu.Lock()
	if a, ok := d.repl.acked[name]; ok && a.stream <= stream {
		delete(d.repl.acked, name)
	}
	d.repl.mu.Unlock()
}

// satisfiedLocked reports whether at least minSync replicas have
// acknowledged pos. Caller holds repl.mu.
func (s *replState) satisfiedLocked(pos wal.Pos, minSync int) bool {
	n := 0
	for _, a := range s.acked {
		if !a.pos.Less(pos) {
			n++
		}
	}
	return n >= minSync
}

// waitReplicated blocks until cfg.ReplMinSync replicas have
// acknowledged pos, the context ends, or the database closes. With
// ReplMinSync == 0 (asynchronous replication, the default) it returns
// immediately.
func (d *DB) waitReplicated(ctx context.Context, pos wal.Pos) error {
	need := d.cfg.ReplMinSync
	if need <= 0 {
		return nil
	}
	s := &d.repl
	s.mu.Lock()
	if s.satisfiedLocked(pos, need) {
		s.mu.Unlock()
		return nil
	}
	w := replWaiter{pos: pos, ch: make(chan struct{})}
	s.waiters = append(s.waiters, w)
	s.mu.Unlock()
	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for i := range s.waiters {
			if s.waiters[i].ch == w.ch {
				s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// ReplStatus is a point-in-time view of the node's replication state.
type ReplStatus struct {
	Role     Role
	Leader   string // leader address (standby only, may be "")
	Counter  uint64 // current version counter
	Replicas int    // connected replicas that have acknowledged (primary)
	// Lag is the version-counter distance between this primary and its
	// slowest connected replica (0 with no replicas, or on a standby).
	Lag uint64
	// Applied is the number of records applied via replication (standby).
	Applied uint64
	// Healthy is false once the WAL has fail-stopped; Err carries the
	// sticky error text.
	Healthy bool
	Err     string
}

// ReplStatusNow returns the node's current replication status.
func (d *DB) ReplStatusNow() ReplStatus {
	st := ReplStatus{
		Role:    d.Role(),
		Counter: d.versionC.Load(),
		Healthy: true,
	}
	if err := d.Health(); err != nil {
		st.Healthy = false
		st.Err = err.Error()
	}
	d.repl.mu.Lock()
	st.Leader = d.repl.leader
	st.Applied = d.repl.applied
	st.Replicas = len(d.repl.acked)
	var minCounter uint64
	first := true
	for _, a := range d.repl.acked {
		if first || a.counter < minCounter {
			minCounter = a.counter
			first = false
		}
	}
	d.repl.mu.Unlock()
	if !first && st.Counter > minCounter {
		st.Lag = st.Counter - minCounter
	}
	return st
}
