package transport

// The replication stream. A standby opens a connection,
// sends OpReplicate with its resume cursor, and the primary answers
// with the stream mode: resume (the cursor's segment is still live) or
// image (the primary's newest snapshot file, ReplImage bytes long,
// precedes the live records, which continue from its cut). From then on
// the connection is a push stream — image frames, each a run of the
// file's bytes stamped with its offset, then record frames, each
// stamped with the contiguous [start, end) range of primary-log
// positions it covers — and the standby sends ack frames back on the
// same connection, which feed the primary's synchronous-replication
// waiters and lag metric.
//
// Contiguity is the safety argument: a standby applies a record frame
// only if the frame's start position equals its cursor, so its state is
// always an exact committed prefix of the primary's log, and it parses
// an image only once every byte arrived in order, with wal.ReadSnapshot
// — the parser recovery uses — against the negotiated cut. Any break —
// a dropped connection, a lost frame, a lagged tailer whose segment was
// truncated, a decode failure — tears the stream down, and the standby
// re-negotiates from its cursor (falling back to the image when the
// primary no longer holds it).

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
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
// comes first; an image frame carries replFrameBytes of the file. Both
// are comfortably under maxFramePayload.
const (
	maxReplBatchRecords = 256
	replFrameBytes      = 1 << 20
)

// --- Payload codecs -----------------------------------------------------
//
// Records travel in internal/codec's layout — the same bytes the WAL
// frames on disk — and the image is the snapshot file itself.

// Image frame payload: [offset][bytes] — a run of the snapshot file
// starting at byte offset.
func writeReplImageFrame(w net.Conn, mu *sync.Mutex, off uint64, chunk []byte) error {
	return writeFrame(w, mu, frameReplImage, 0, func(b []byte) []byte {
		return append(binary.AppendUvarint(b, off), chunk...)
	})
}

func decodeReplImage(payload []byte) (off uint64, chunk []byte, err error) {
	d := codec.Decoder{B: payload}
	off = d.Uvarint()
	return off, payload[d.Off:], d.Err()
}

// Record frame payload: [start pos][end pos][nil-aware count][records].
// The records are the contiguous run of committed WAL records occupying
// [start, end) of the primary's log.
func writeReplRecordsFrame(w net.Conn, mu *sync.Mutex, start, end wal.Pos, recs []wal.Record) error {
	return writeFrame(w, mu, frameReplRecords, 0, func(b []byte) []byte { return appendReplRecords(b, start, end, recs) })
}

func appendReplRecords(b []byte, start, end wal.Pos, recs []wal.Record) []byte {
	b = appendPos(b, start)
	b = appendPos(b, end)
	b = codec.AppendLen(b, recs)
	for i := range recs {
		b = codec.AppendRecord(b, &recs[i])
	}
	return b
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

	// The image's cut is fixed before the answer names it: the file is
	// open, so a newer snapshot deleting it cannot cut the transfer short.
	resp := Response{Code: CodeOK, Role: db.RolePrimary.String(), ReplPos: req.ReplFrom}
	var image *os.File
	if req.ReplFrom.IsZero() || !d.WALResumable(req.ReplFrom) {
		f, cut, err := d.JoinImage(req.ReplCounter)
		var fi os.FileInfo
		if err == nil {
			defer f.Close()
			fi, err = f.Stat()
		}
		if err != nil {
			s.logf("tdbd: repl image for %s: %v", name, err)
			_ = pc.refuse(id, "%v", err)
			return
		}
		image, resp.ReplImage, resp.ReplPos = f, uint64(fi.Size()), cut
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

	if image != nil {
		if err := streamImage(pc, image, resp.ReplImage); err != nil {
			s.logf("tdbd: repl image to %s: %v", name, err)
			return
		}
	}
	s.streamRecords(sctx, pc, name, resp.ReplPos)
}

// streamImage pushes the size bytes of the snapshot file f in frames of
// at most replFrameBytes, each stamped with its offset in the file.
func streamImage(pc *peerConn, f *os.File, size uint64) error {
	buf := make([]byte, min(size, replFrameBytes))
	for off := uint64(0); off < size; {
		chunk := buf[:min(size-off, uint64(len(buf)))]
		if _, err := io.ReadFull(f, chunk); err != nil {
			return err
		}
		if err := writeReplImageFrame(pc, &pc.writeMu, off, chunk); err != nil {
			return err
		}
		off += uint64(len(chunk))
	}
	return nil
}

// streamRecords follows the live log from `from`, coalescing records
// that are already durable into one frame per wakeup. It returns when
// the connection, the log, or ctx dies; a lagged tailer (our cursor
// truncated by a snapshot) just tears the stream down — the standby
// re-negotiates and gets the newest image.
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
			n += len(dep.Key.Value()) + 16
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
	image   uint64  // size of the image that precedes the records; 0 = none
	start   wal.Pos // the records' start: the resume cursor, or the image's cut
}

// OpenReplication dials the primary at addr and negotiates a stream for
// replica `name` at version counter `counter`, resuming from cursor
// `from` (zero asks for a full state transfer). A standby peer is
// rejected with ErrNotPrimary (carrying the leader's address via
// *db.NotPrimaryError); an unreachable peer errors with ErrUnavailable
// in the chain. ctx bounds the exchange only.
func OpenReplication(ctx context.Context, addr, name string, from wal.Pos, counter uint64) (*ReplStream, error) {
	c, fr, resp, err := dialPeer(ctx, addr, &Request{Op: OpReplicate, Subscriber: name, ReplFrom: from, ReplCounter: counter})
	if err != nil {
		return nil, err
	}
	switch resp.Code {
	case CodeOK:
		return &ReplStream{c: c, fr: fr, image: resp.ReplImage, start: resp.ReplPos}, nil
	case CodeNotPrimary:
		c.Close()
		return nil, fmt.Errorf("%w: %w", ErrNotPrimary, &db.NotPrimaryError{Leader: resp.Leader})
	default:
		c.Close()
		return nil, fmt.Errorf("transport: replicate: %s", resp.Err)
	}
}

// replImageIdle bounds the wait for the next image frame. The primary
// writes the image back to back, so a silent link mid-image means its
// last frames were lost; without a bound, a standby of an idle primary
// would wait for them forever.
var replImageIdle = 10 * time.Second

// Image returns the snapshot file that precedes the record stream,
// whole, or nil when the stream resumes. Its bytes arrive in
// order; an offset gap (a lost frame), a record frame before the last
// byte, or replImageIdle without a frame means part of it was lost and
// fails the transfer. The caller checks the bytes with wal.ReadSnapshot.
func (r *ReplStream) Image() ([]byte, error) {
	if r.image == 0 {
		return nil, nil
	}
	b := make([]byte, 0, min(r.image, maxFramePayload))
	for uint64(len(b)) < r.image {
		_ = r.c.SetReadDeadline(time.Now().Add(replImageIdle))
		typ, _, payload, err := r.fr.Read()
		if err != nil {
			return nil, wrapUnavail(fmt.Errorf("transport: repl read: %w", err))
		}
		switch typ {
		case frameReplRecords:
			return nil, errors.New("transport: repl image cut short: record frame before its last byte")
		case frameReplImage:
		default:
			continue
		}
		off, chunk, err := decodeReplImage(payload)
		if err != nil {
			return nil, err
		}
		if off != uint64(len(b)) {
			return nil, fmt.Errorf("transport: repl image cut short: frame at offset %d after %d bytes", off, len(b))
		}
		b = append(b, chunk...)
	}
	_ = r.c.SetReadDeadline(time.Time{}) // the record stream may idle
	return b, nil
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
