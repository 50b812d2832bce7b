package transport

// The replication stream. A standby opens a connection,
// sends OpReplicate with its resume cursor, and the primary answers
// with the stream mode: resume (the cursor's segment is still live) or
// full snapshot (a state image precedes the live records). From then on
// the connection is a push stream — snapshot-entry frames, then
// record frames, each stamped with the contiguous [start, end) range of
// primary-log positions it covers — and the standby sends ack frames
// back on the same connection, which feed the primary's synchronous-
// replication waiters and lag metric.
//
// Contiguity is the safety argument: a standby applies a record frame
// only if the frame's start position equals its cursor, so its state is
// always an exact committed prefix of the primary's log. Any break —
// a dropped connection, a lost frame, a lagged tailer whose segment was
// truncated, a decode failure — tears the stream down, and the standby
// re-negotiates from its cursor (falling back to a full snapshot when
// the primary no longer holds it).

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"tcache/internal/codec"
	"tcache/internal/db"
	"tcache/internal/wal"
)

// ErrNotPrimary mirrors db.ErrNotPrimary across the wire: the peer is a
// standby and rejected a write (or a replication request). It wraps the
// db identity so callers can match either.
var ErrNotPrimary = fmt.Errorf("transport: peer is not the primary: %w", db.ErrNotPrimary)

// Stream batching bounds: a record frame carries at most
// maxReplBatchRecords records or ~replFrameBytes of payload, whichever
// comes first; snapshot frames chunk the same way. Both are comfortably
// under maxFramePayload.
const (
	maxReplBatchRecords = 256
	replFrameBytes      = 1 << 20
)

// --- Payload codecs -----------------------------------------------------
//
// Records and snapshot entries travel in internal/codec's layout — the
// same bytes the WAL frames on disk.

// Snapshot frame payload: [nil-aware count][count entries]. A nil count
// terminates the image and carries [cut pos][counter][total] — the log
// position to tail from, the version counter at the cut, and the total
// entry count of the image. The total lets the standby detect a lost
// or reordered entry frame (the stream has no positional contiguity in
// snapshot mode, unlike record frames) and reject the transfer instead
// of accepting a silently truncated image.
func writeReplSnapshotFrame(w net.Conn, mu *sync.Mutex, entries []wal.SnapshotEntry) error {
	return writeFrame(w, mu, frameReplSnapshot, 0, func(b []byte) []byte {
		b = codec.AppendCount(b, len(entries))
		for i := range entries {
			b = codec.AppendSnapshotEntry(b, &entries[i])
		}
		return b
	})
}

func writeReplSnapshotEndFrame(w net.Conn, mu *sync.Mutex, cut wal.Pos, counter, total uint64) error {
	return writeFrame(w, mu, frameReplSnapshot, 0, func(b []byte) []byte {
		b = codec.AppendCount(b, -1)
		b = appendPos(b, cut)
		b = binary.AppendUvarint(b, counter)
		return binary.AppendUvarint(b, total)
	})
}

func decodeReplSnapshot(payload []byte) (entries []wal.SnapshotEntry, cut wal.Pos, counter, total uint64, done bool, err error) {
	d := payloadDecoder{codec.Decoder{B: payload}}
	n := d.Count(5) // key length + nil value + 2 version varints + nil deps
	if n < 0 {
		cut, counter, total = d.pos(), d.Uvarint(), d.Uvarint()
		return nil, cut, counter, total, true, d.Err()
	}
	entries = make([]wal.SnapshotEntry, n)
	for i := range entries {
		entries[i] = codec.DecodeSnapshotEntry(&d.Decoder)
	}
	return entries, wal.Pos{}, 0, 0, false, d.Err()
}

// Record frame payload: [start pos][end pos][nil-aware count][records].
// The records are the contiguous run of committed WAL records occupying
// [start, end) of the primary's log.
func writeReplRecordsFrame(w net.Conn, mu *sync.Mutex, start, end wal.Pos, recs []wal.Record) error {
	return writeFrame(w, mu, frameReplRecords, 0, func(b []byte) []byte {
		b = appendPos(b, start)
		b = appendPos(b, end)
		b = codec.AppendCount(b, len(recs))
		for i := range recs {
			b = codec.AppendRecord(b, &recs[i])
		}
		return b
	})
}

func decodeReplRecords(payload []byte) (start, end wal.Pos, recs []wal.Record, err error) {
	d := payloadDecoder{codec.Decoder{B: payload}}
	start, end = d.pos(), d.pos()
	if n := d.Count(3); n >= 0 { // 2 version varints + nil writes
		recs = make([]wal.Record, n)
		for i := range recs {
			recs[i] = codec.DecodeRecord(&d.Decoder)
		}
	}
	return start, end, recs, d.Err()
}

// Ack frame payload: [pos][counter] — the standby holds (durably) every
// record before pos, applied through version counter.
func writeReplAckFrame(w net.Conn, mu *sync.Mutex, pos wal.Pos, counter uint64) error {
	return writeFrame(w, mu, frameReplAck, 0, func(b []byte) []byte {
		b = appendPos(b, pos)
		return binary.AppendUvarint(b, counter)
	})
}

func decodeReplAck(payload []byte) (wal.Pos, uint64, error) {
	d := payloadDecoder{codec.Decoder{B: payload}}
	pos, counter := d.pos(), d.Uvarint()
	return pos, counter, d.Err()
}

// --- Primary side: serving the stream -----------------------------------

// serveReplication turns the connection into a replication stream for
// one standby: negotiate the mode, stream the state image if one is
// needed, then follow the live log. Acks are consumed by a dedicated
// reader goroutine — the only reader after negotiation — and feed the
// database's replica registry.
func (s *DBServer) serveReplication(ctx context.Context, pc *peerConn, id uint64, req Request) {
	d := s.db
	name := req.Subscriber
	if name == "" {
		name = pc.RemoteAddr().String()
	}
	// A refusal is the connection's last frame either way, so its write
	// error has no one to go to.
	if st := d.ReplStatusNow(); st.Role != db.RolePrimary {
		_ = pc.respond(id, &Response{Code: CodeNotPrimary, Err: db.ErrNotPrimary.Error(), Role: st.Role.String(), Leader: st.Leader})
		return
	}
	if !d.HasWAL() {
		_ = pc.refuse(id, "%v", db.ErrNoWAL)
		return
	}

	from := req.ReplFrom
	resume := !from.IsZero() && d.WALResumable(from)
	resp := Response{Code: CodeOK, Role: db.RolePrimary.String()}
	if resume {
		resp.ReplPos = from
	} else {
		resp.ReplSnapshot = true
	}
	if err := pc.respond(id, &resp); err != nil {
		return
	}

	// Teardown order (LIFO): close the connection so the ack reader
	// unblocks, wait for it, then drop the replica from the registry —
	// a late ack must not resurrect a dropped entry.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var ackWG sync.WaitGroup
	stream := d.ReplStream()
	defer d.DropReplica(name, stream)
	defer ackWG.Wait()
	defer pc.Close()
	ackWG.Add(1)
	go func() {
		defer ackWG.Done()
		defer cancel() // a dead peer must also stop a tailer blocked on an idle log
		for {
			typ, _, payload, err := pc.fr.Read()
			if err != nil {
				return
			}
			if typ != frameReplAck {
				continue
			}
			pos, counter, derr := decodeReplAck(payload)
			if derr != nil {
				s.logf("tdbd: repl ack decode: %v", derr)
				continue
			}
			d.NoteReplicaAck(name, stream, pos, counter)
		}
	}()

	if !resume {
		cut, err := s.streamSnapshot(pc)
		if err != nil {
			s.logf("tdbd: repl snapshot to %s: %v", name, err)
			return
		}
		from = cut
	}
	s.streamRecords(sctx, pc, name, from)
}

// streamSnapshot pushes a consistent full-state image, chunked into
// frames, then the terminator carrying the log cut to tail from.
func (s *DBServer) streamSnapshot(pc *peerConn) (wal.Pos, error) {
	var batch []wal.SnapshotEntry
	size, total := 0, uint64(0)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := writeReplSnapshotFrame(pc, &pc.writeMu, batch)
		batch, size = batch[:0], 0
		return err
	}
	cut, counter, err := s.db.ReplSnapshot(func(e wal.SnapshotEntry) error {
		batch = append(batch, e)
		total++
		size += len(e.Key) + len(e.Value) + 32
		for _, dep := range e.Deps {
			size += len(dep.Key) + 16
		}
		if size >= replFrameBytes {
			return flush()
		}
		return nil
	})
	if err != nil {
		return wal.Pos{}, err
	}
	if err := flush(); err != nil {
		return wal.Pos{}, err
	}
	if err := writeReplSnapshotEndFrame(pc, &pc.writeMu, cut, counter, total); err != nil {
		return wal.Pos{}, err
	}
	return cut, nil
}

// streamRecords follows the live log from `from`, coalescing records
// that are already durable into one frame per wakeup. It returns when
// the connection, the log, or ctx dies; a lagged tailer (our cursor
// truncated by a snapshot) just tears the stream down — the standby
// re-negotiates and gets a fresh image.
func (s *DBServer) streamRecords(ctx context.Context, pc *peerConn, name string, from wal.Pos) {
	t, err := s.db.WALTail(from)
	if err != nil {
		s.logf("tdbd: repl tail for %s: %v", name, err)
		return
	}
	defer t.Close()
	// A pre-canceled context turns Next into a non-blocking drain: it
	// returns a record if one is already decodable and context.Canceled
	// once the tailer would have to wait.
	//lint:ignore ctxdiscipline deliberately pre-canceled to make Tailer.Next non-blocking; never waited on
	drained, stopDrain := context.WithCancel(context.Background())
	stopDrain()
	cursor := from
	var recs []wal.Record // one slice for every frame: the encoder keeps none of it
	for {
		rec, end, err := t.Next(ctx)
		if err != nil {
			if ctx.Err() == nil && !errors.Is(err, wal.ErrClosed) {
				s.logf("tdbd: repl stream to %s: %v", name, err)
			}
			return
		}
		recs = append(recs[:0], rec)
		size := recordWireSize(&rec)
		for len(recs) < maxReplBatchRecords && size < replFrameBytes {
			rec, pos, err := t.Next(drained)
			if err != nil {
				break // drained; real faults resurface on the blocking Next
			}
			recs = append(recs, rec)
			end = pos
			size += recordWireSize(&rec)
		}
		if err := writeReplRecordsFrame(pc, &pc.writeMu, cursor, end, recs); err != nil {
			return
		}
		cursor = end
	}
}

// recordWireSize estimates a record's encoded size for frame chunking.
func recordWireSize(rec *wal.Record) int {
	n := 16
	for i := range rec.Writes {
		w := &rec.Writes[i]
		n += len(w.Key) + len(w.Value) + 16
		for _, dep := range w.Deps {
			n += len(dep.Key) + 16
		}
	}
	return n
}

// --- Standby side: the stream client ------------------------------------

// ReplStream is one open replication connection from a standby to the
// primary — no automatic reconnect; the standby loop (cmd/tdbd) owns
// retry and re-negotiation. Reads are synchronous on the caller's
// goroutine; Close (or the AfterFunc pattern on a context) unblocks
// them.
type ReplStream struct {
	c       net.Conn
	fr      *frameReader
	writeMu sync.Mutex
	snap    bool
	start   wal.Pos
}

// OpenReplication dials the primary at addr and negotiates a
// replication stream for replica `name`, resuming from cursor `from`
// (zero asks for a full state transfer). A standby peer is rejected
// with ErrNotPrimary (carrying the leader's address via
// *db.NotPrimaryError); an unreachable peer errors with ErrUnavailable
// in the chain. ctx bounds the exchange only.
func OpenReplication(ctx context.Context, addr, name string, from wal.Pos) (*ReplStream, error) {
	c, fr, resp, err := dialPeer(ctx, addr, &Request{Op: OpReplicate, Subscriber: name, ReplFrom: from})
	if err != nil {
		return nil, err
	}
	switch resp.Code {
	case CodeOK:
		return &ReplStream{c: c, fr: fr, snap: resp.ReplSnapshot, start: resp.ReplPos}, nil
	case CodeNotPrimary:
		c.Close()
		return nil, fmt.Errorf("%w: %w", ErrNotPrimary, &db.NotPrimaryError{Leader: resp.Leader})
	default:
		c.Close()
		return nil, fmt.Errorf("transport: replicate: %s", resp.Err)
	}
}

// SnapshotMode reports whether a full state image precedes the record
// stream (false: the stream resumes at Start).
func (r *ReplStream) SnapshotMode() bool { return r.snap }

// Start returns the record stream's start position: the negotiated
// resume cursor, or — after the snapshot terminator has been read — the
// image's log cut.
func (r *ReplStream) Start() wal.Pos { return r.start }

// replImageIdle bounds the wait for the next image frame. The primary
// writes the image back to back, so a silent link mid-image means its
// terminator was lost; without a bound, a standby of an idle primary
// would wait for it forever.
var replImageIdle = 10 * time.Second

// NextSnapshot returns the next batch of state-image entries. done
// reports the image terminator: Start() then holds the log cut the
// record stream continues from, counter the primary's version counter
// at the cut, and total the entry count of the complete image — the
// caller must verify it applied exactly that many entries before
// trusting the transfer. A record frame before the terminator, or
// replImageIdle without a frame, means the terminator was lost and fails
// the transfer.
func (r *ReplStream) NextSnapshot() (entries []wal.SnapshotEntry, counter, total uint64, done bool, err error) {
	for {
		_ = r.c.SetReadDeadline(time.Now().Add(replImageIdle))
		typ, _, payload, err := r.fr.Read()
		if err != nil {
			return nil, 0, 0, false, wrapUnavail(fmt.Errorf("transport: repl read: %w", err))
		}
		switch typ {
		case frameReplRecords:
			return nil, 0, 0, false, errors.New("transport: repl image cut short: record frame before its terminator")
		case frameReplSnapshot:
		default:
			continue
		}
		entries, cut, counter, total, done, err := decodeReplSnapshot(payload)
		if err != nil {
			return nil, 0, 0, false, err
		}
		if done {
			r.start = cut
			_ = r.c.SetReadDeadline(time.Time{}) // the record stream may idle
		}
		return entries, counter, total, done, nil
	}
}

// NextRecords returns the next contiguous run of committed records and
// the [start, end) range of primary-log positions it covers. The caller
// must verify start against its cursor before applying.
func (r *ReplStream) NextRecords() (start, end wal.Pos, recs []wal.Record, err error) {
	for {
		typ, _, payload, err := r.fr.Read()
		if err != nil {
			return wal.Pos{}, wal.Pos{}, nil, wrapUnavail(fmt.Errorf("transport: repl read: %w", err))
		}
		if typ != frameReplRecords {
			continue
		}
		return decodeReplRecords(payload)
	}
}

// Ack tells the primary this standby durably holds every record before
// pos, applied through version counter. Safe to call concurrently with
// the Next methods.
func (r *ReplStream) Ack(pos wal.Pos, counter uint64) error {
	return writeReplAckFrame(r.c, &r.writeMu, pos, counter)
}

// Close tears the connection down; blocked Next calls return.
func (r *ReplStream) Close() { r.c.Close() }

// --- Client status & promotion ------------------------------------------

// NodeStatus is the ping payload: the serving node's
// replication role and durability health.
type NodeStatus struct {
	Role      string // "primary" or "standby"
	Leader    string // primary's advertised address (standby only, may be "")
	Healthy   bool   // false once the node's WAL has fail-stopped
	HealthErr string // the sticky durability error, when unhealthy
	Lag       uint64 // version-counter lag of the slowest connected replica (primary)
	Counter   uint64 // the node's current version counter
}

// Status pings the server and returns its replication role and
// durability health.
func (c *DBClient) Status(ctx context.Context) (NodeStatus, error) {
	resp, err := c.call(ctx, Request{Op: OpPing})
	return NodeStatus{
		Role:      resp.Role,
		Leader:    resp.Leader,
		Healthy:   resp.Healthy,
		HealthErr: resp.HealthErr,
		Lag:       resp.ReplLag,
		Counter:   resp.ReplCounter,
	}, err
}

// Promote turns the standby this client is connected to into a
// writable primary and returns the version counter it starts from.
// Promoting a primary is a no-op (and returns its current counter).
func (c *DBClient) Promote(ctx context.Context) (uint64, error) {
	resp, err := c.call(ctx, Request{Op: OpPromote})
	return resp.ReplCounter, err
}
