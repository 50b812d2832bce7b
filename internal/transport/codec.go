package transport

// The wire codec: a hand-written length-prefixed binary framing.
//
// Connections open with an 8-byte handshake in each direction —
//
//	[4] magic "TCWP"   [1] protocol version   [3] reserved (zero)
//
// — client first, then the server's reply; a version mismatch is
// detected before any frame is exchanged and surfaces as a descriptive
// error on both sides.
//
// After the handshake the stream is a sequence of frames:
//
//	[2] frame magic 0xA9 0x7C
//	[1] frame type (request, response, invalidation batch, or one of
//	    the three replication-stream types)
//	[1] reserved (zero)
//	[8] request id (big endian; 0 on pushed frames)
//	[4] payload length (big endian)
//	[…] payload
//
// The request id correlates responses with requests, which is what lets
// a client multiplex many in-flight calls over one connection. The
// per-frame magic lets a reader that finds itself mid-garbage (a stale
// or half-open connection, a peer that died mid-write) scan forward to
// the next frame boundary and resynchronize instead of discarding the
// connection wholesale.
//
// Payload fields are laid out by internal/codec (varints, nil-aware
// counts, no reflection). Encoders append into sync.Pool-ed buffers
// that are recycled after the write; decoders alias byte-slice fields
// directly into the frame's payload buffer (freshly allocated per
// frame, never pooled), so a decoded Response costs one payload
// allocation plus the slice headers instead of a deep copy.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"unsafe"

	"tcache/internal/codec"
	"tcache/internal/kv"
	"tcache/internal/wal"
)

// ProtocolVersion is the wire protocol spoken by this build; both sides
// of a connection must match exactly.
const ProtocolVersion = 10

// handshakeMagic opens every connection, in both directions.
var handshakeMagic = [4]byte{'T', 'C', 'W', 'P'}

const handshakeSize = 8

// Frame layout constants.
const (
	frameMagic0     = 0xA9
	frameMagic1     = 0x7C
	frameHeaderSize = 16

	frameRequest       = 1
	frameResponse      = 2
	frameInvalidations = 3

	// Replication stream frames. After an accepted
	// OpReplicate, the primary pushes frameReplImage frames (a run of
	// its snapshot file's bytes stamped with their offset in the file),
	// when the answer announced an image, and then frameReplRecords
	// frames (a contiguous run of committed WAL records stamped with its
	// start and end positions); the standby sends frameReplAck frames
	// back on the same connection.
	frameReplImage   = 4
	frameReplRecords = 5
	frameReplAck     = 6

	// maxFramePayload bounds a frame's payload so a corrupt or hostile
	// length field cannot trigger a giant allocation. Writers enforce it
	// too: an oversized frame must never reach the wire, because the
	// peer's reader would reject its (valid) header as garbage and lose
	// the stream position — and a payload over 4 GiB would silently
	// truncate the uint32 length field.
	maxFramePayload = 64 << 20
)

// ErrFrameTooLarge reports a message whose encoding exceeds
// maxFramePayload; it is surfaced to the caller instead of being
// written, keeping the stream framed.
var ErrFrameTooLarge = errors.New("transport: frame exceeds maximum payload size")

// errNotWirePeer reports a peer that did not present the handshake
// magic.
var errNotWirePeer = errors.New("transport: peer did not present the tcache wire handshake")

// VersionMismatchError reports a peer speaking a different protocol
// version; both versions are carried so operators can tell which side is
// stale.
type VersionMismatchError struct {
	Local, Peer byte
}

func (e *VersionMismatchError) Error() string {
	return fmt.Sprintf("transport: protocol version mismatch: local speaks v%d, peer speaks v%d", e.Local, e.Peer)
}

// --- Handshake ----------------------------------------------------------

func handshakeBytes() [handshakeSize]byte {
	var b [handshakeSize]byte
	copy(b[:4], handshakeMagic[:])
	b[4] = ProtocolVersion
	return b
}

// readHandshake consumes and validates one handshake, returning the
// peer's protocol version.
func readHandshake(r io.Reader) (byte, error) {
	var b [handshakeSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("transport: read handshake: %w", err)
	}
	if [4]byte(b[:4]) != handshakeMagic {
		return 0, errNotWirePeer
	}
	return b[4], nil
}

// clientHandshake runs the client side: send ours, read the server's,
// reject a version mismatch.
func clientHandshake(c net.Conn, r io.Reader) error {
	hs := handshakeBytes()
	if _, err := c.Write(hs[:]); err != nil {
		return fmt.Errorf("transport: write handshake: %w", err)
	}
	return readServerHandshake(r)
}

// readServerHandshake reads the server's handshake and rejects a version
// mismatch.
func readServerHandshake(r io.Reader) error {
	peer, err := readHandshake(r)
	if err != nil {
		return err
	}
	if peer != ProtocolVersion {
		return &VersionMismatchError{Local: ProtocolVersion, Peer: peer}
	}
	return nil
}

// serverHandshake runs the server side: read the client's, always reply
// with ours (so a mismatched client learns both versions), then reject a
// mismatch.
func serverHandshake(c net.Conn, r io.Reader) error {
	peer, err := readHandshake(r)
	if err != nil {
		return err
	}
	hs := handshakeBytes()
	if _, err := c.Write(hs[:]); err != nil {
		return fmt.Errorf("transport: write handshake: %w", err)
	}
	if peer != ProtocolVersion {
		return &VersionMismatchError{Local: ProtocolVersion, Peer: peer}
	}
	return nil
}

// --- Frame buffers ------------------------------------------------------

// framePool recycles encode buffers on the hot path. Buffers that grew
// beyond maxPooledBuf are dropped instead of pinned forever.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

const maxPooledBuf = 1 << 20

func getFrameBuf() *[]byte { return framePool.Get().(*[]byte) }

func putFrameBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	framePool.Put(b)
}

// beginFrame appends a frame header with a length placeholder; finishFrame
// patches the length once the payload is appended.
func beginFrame(b []byte, typ byte, id uint64) []byte {
	b = append(b, frameMagic0, frameMagic1, typ, 0)
	b = binary.BigEndian.AppendUint64(b, id)
	b = binary.BigEndian.AppendUint32(b, 0)
	return b
}

func finishFrame(b []byte) []byte {
	binary.BigEndian.PutUint32(b[frameHeaderSize-4:frameHeaderSize], uint32(len(b)-frameHeaderSize))
	return b
}

// --- Frame reading with boundary resync ---------------------------------

// frameReader reads frames off a connection. When the stream position is
// not a frame boundary (garbage from a half-open peer, a partial write
// from a dead one) it scans forward byte by byte for the next plausible
// frame header instead of giving up on the connection.
type frameReader struct {
	r    io.Reader
	hdr  [frameHeaderSize]byte
	logf func(format string, args ...any)
	// Resyncs counts the times the reader had to scan for a boundary.
	Resyncs int
}

func newFrameReader(r io.Reader, logf func(string, ...any)) *frameReader {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &frameReader{r: r, logf: logf}
}

// headerValid reports whether fr.hdr is a plausible frame header.
func (fr *frameReader) headerValid() bool {
	if fr.hdr[0] != frameMagic0 || fr.hdr[1] != frameMagic1 || fr.hdr[3] != 0 {
		return false
	}
	switch fr.hdr[2] {
	case frameRequest, frameResponse, frameInvalidations,
		frameReplImage, frameReplRecords, frameReplAck:
	default:
		return false
	}
	return binary.BigEndian.Uint32(fr.hdr[12:16]) <= maxFramePayload
}

// Read returns the next frame. The payload is freshly allocated per
// frame (decoders alias into it), so it is valid indefinitely.
func (fr *frameReader) Read() (typ byte, id uint64, payload []byte, err error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	if !fr.headerValid() {
		// Not at a frame boundary: slide a one-byte window until a
		// plausible header lines up. A false positive inside payload-like
		// garbage decodes to a malformed message downstream and is
		// rejected there; the scan itself never allocates.
		fr.Resyncs++
		skipped := 0
		one := make([]byte, 1)
		for {
			copy(fr.hdr[:], fr.hdr[1:])
			if _, err := io.ReadFull(fr.r, one); err != nil {
				return 0, 0, nil, err
			}
			fr.hdr[frameHeaderSize-1] = one[0]
			skipped++
			if fr.headerValid() {
				break
			}
		}
		fr.logf("transport: stream resynced to frame boundary (skipped %d bytes)", skipped)
	}
	typ = fr.hdr[2]
	id = binary.BigEndian.Uint64(fr.hdr[4:12])
	n := int(binary.BigEndian.Uint32(fr.hdr[12:16]))
	if n > 0 {
		payload = make([]byte, n)
		if _, err := io.ReadFull(fr.r, payload); err != nil {
			return 0, 0, nil, err
		}
	}
	return typ, id, payload, nil
}

// --- Field encoders -----------------------------------------------------

// appendPos encodes a WAL position (segment sequence + byte offset).
// Offsets are never negative, so the uvarint encoding is exact.
func appendPos(b []byte, p wal.Pos) []byte {
	b = binary.AppendUvarint(b, p.Seq)
	return binary.AppendUvarint(b, uint64(p.Off))
}

func appendItem(b []byte, it kv.Item) []byte {
	b = codec.AppendBytes(b, it.Value)
	b = codec.AppendVersion(b, it.Version)
	return codec.AppendDepList(b, it.Deps)
}

func appendKeySlice(b []byte, keys []kv.Key) []byte {
	b = codec.AppendLen(b, keys)
	for _, k := range keys {
		b = codec.AppendString(b, string(k))
	}
	return b
}

func appendKeyValues(b []byte, kvs []KeyValue) []byte {
	b = codec.AppendLen(b, kvs)
	for _, w := range kvs {
		b = codec.AppendString(b, string(w.Key))
		b = codec.AppendBytes(b, w.Value)
	}
	return b
}

func appendObservedReads(b []byte, rs []ObservedRead) []byte {
	b = codec.AppendLen(b, rs)
	for _, r := range rs {
		b = codec.AppendString(b, string(r.Key))
		b = codec.AppendVersion(b, r.Version)
		b = codec.AppendBool(b, r.Found)
	}
	return b
}

func appendValues(b []byte, vals []kv.Value) []byte {
	b = codec.AppendLen(b, vals)
	for _, v := range vals {
		b = codec.AppendBytes(b, v)
	}
	return b
}

func appendLookups(b []byte, ls []kv.Lookup) []byte {
	b = codec.AppendLen(b, ls)
	for _, l := range ls {
		b = appendItem(b, l.Item)
		b = codec.AppendBool(b, l.Found)
	}
	return b
}

func appendDepLists(b []byte, ls []kv.DepList) []byte {
	b = codec.AppendLen(b, ls)
	for _, l := range ls {
		b = codec.AppendDepList(b, l)
	}
	return b
}

func appendStats(b []byte, m map[string]uint64) []byte {
	if m == nil {
		return codec.AppendCount(b, -1)
	}
	b = codec.AppendCount(b, len(m))
	for k, v := range m {
		b = codec.AppendString(b, k)
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// --- Message encoders ---------------------------------------------------

func appendRequest(b []byte, req *Request) []byte {
	b = codec.AppendString(b, string(req.Op))
	b = codec.AppendString(b, string(req.Key))
	b = appendKeySlice(b, req.Keys)
	b = codec.AppendString(b, req.Subscriber)
	b = appendKeyValues(b, req.Writes)
	b = codec.AppendVersion(b, req.MinVersion)
	b = appendObservedReads(b, req.ReadVersions)
	b = appendPos(b, req.ReplFrom)
	return binary.AppendUvarint(b, req.ReplCounter)
}

func appendResponse(b []byte, resp *Response) []byte {
	b = binary.AppendUvarint(b, uint64(resp.Code))
	b = codec.AppendString(b, resp.Err)
	b = appendItem(b, resp.Item)
	b = codec.AppendVersion(b, resp.Version)
	b = appendDepLists(b, resp.WriteDeps)
	b = appendLookups(b, resp.Batch)
	b = appendValues(b, resp.Values)
	b = appendStats(b, resp.Stats)
	b = codec.AppendString(b, string(resp.ConflictKey))
	b = codec.AppendVersion(b, resp.ConflictVersion)
	b = codec.AppendBool(b, resp.ConflictFound)
	b = codec.AppendString(b, resp.Role)
	b = codec.AppendString(b, resp.Leader)
	b = codec.AppendBool(b, resp.Healthy)
	b = codec.AppendString(b, resp.HealthErr)
	b = binary.AppendUvarint(b, resp.ReplLag)
	b = binary.AppendUvarint(b, resp.ReplCounter)
	b = binary.AppendUvarint(b, resp.ReplImage)
	return appendPos(b, resp.ReplPos)
}

func appendInvalidations(b []byte, invs []Invalidation) []byte {
	b = codec.AppendLen(b, invs)
	for _, inv := range invs {
		b = codec.AppendString(b, string(inv.Key))
		b = codec.AppendVersion(b, inv.Version)
	}
	return b
}

// --- Field decoders -----------------------------------------------------

// payloadDecoder walks one frame payload: codec.Decoder's bounds-checked,
// sticky-error accessors (aliasing the payload, zero copy) plus the
// message-level fields only the wire carries. A message decoder reads
// its fields in order and reports d.Err() once at the end.
type payloadDecoder struct{ codec.Decoder }

func (d *payloadDecoder) key() kv.Key { return kv.Key(d.String()) }

func (d *payloadDecoder) pos() wal.Pos {
	return wal.Pos{Seq: d.Uvarint(), Off: int64(d.Uvarint())}
}

func (d *payloadDecoder) item() kv.Item {
	return kv.Item{Value: d.Bytes(), Version: d.Version(), Deps: d.DepList()}
}

func (d *payloadDecoder) keySlice() []kv.Key {
	n := d.Count(1)
	if n < 0 {
		return nil
	}
	keys := make([]kv.Key, n)
	for i := range keys {
		keys[i] = d.key()
	}
	return keys
}

func (d *payloadDecoder) keyValues() []KeyValue {
	n := d.Count(2)
	if n < 0 {
		return nil
	}
	kvs := make([]KeyValue, n)
	for i := range kvs {
		kvs[i] = KeyValue{Key: d.key(), Value: d.Bytes()}
	}
	return kvs
}

func (d *payloadDecoder) observedReads() []ObservedRead {
	n := d.Count(4) // key length + 2 version varints + found bool
	if n < 0 {
		return nil
	}
	rs := make([]ObservedRead, n)
	for i := range rs {
		rs[i] = ObservedRead{Key: d.key(), Version: d.Version(), Found: d.Bool()}
	}
	return rs
}

func (d *payloadDecoder) values() []kv.Value {
	n := d.Count(1)
	if n < 0 {
		return nil
	}
	vals := make([]kv.Value, n)
	for i := range vals {
		vals[i] = d.Bytes()
	}
	return vals
}

func (d *payloadDecoder) lookups() []kv.Lookup {
	n := d.Count(5) // nil value + 2 version varints + nil deps + found bool
	if n < 0 {
		return nil
	}
	ls := make([]kv.Lookup, n)
	for i := range ls {
		ls[i] = kv.Lookup{Item: d.item(), Found: d.Bool()}
	}
	return ls
}

func (d *payloadDecoder) depLists() []kv.DepList {
	n := d.Count(1) // a nil list is one byte
	if n < 0 {
		return nil
	}
	ls := make([]kv.DepList, n)
	for i := range ls {
		ls[i] = d.DepList()
	}
	return ls
}

func (d *payloadDecoder) stats() map[string]uint64 {
	n := d.Count(2)
	if n < 0 {
		return nil
	}
	m := make(map[string]uint64, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.String()
		m[k] = d.Uvarint()
	}
	return m
}

// --- Message decoders ---------------------------------------------------

func decodeRequest(payload []byte) (Request, error) {
	d := payloadDecoder{codec.Decoder{B: payload}}
	req := Request{
		Op:           Op(d.String()),
		Key:          d.key(),
		Keys:         d.keySlice(),
		Subscriber:   d.String(),
		Writes:       d.keyValues(),
		MinVersion:   d.Version(),
		ReadVersions: d.observedReads(),
		ReplFrom:     d.pos(),
		ReplCounter:  d.Uvarint(),
	}
	return req, d.Err()
}

func decodeResponse(payload []byte) (Response, error) {
	d := payloadDecoder{codec.Decoder{B: payload}}
	resp := Response{
		Code:            Code(int(d.Uvarint())),
		Err:             d.String(),
		Item:            d.item(),
		Version:         d.Version(),
		WriteDeps:       d.depLists(),
		Batch:           d.lookups(),
		Values:          d.values(),
		Stats:           d.stats(),
		ConflictKey:     d.key(),
		ConflictVersion: d.Version(),
		ConflictFound:   d.Bool(),
		Role:            d.String(),
		Leader:          d.String(),
		Healthy:         d.Bool(),
		HealthErr:       d.String(),
		ReplLag:         d.Uvarint(),
		ReplCounter:     d.Uvarint(),
		ReplImage:       d.Uvarint(),
		ReplPos:         d.pos(),
	}
	return resp, d.Err()
}

func decodeInvalidations(payload []byte) ([]Invalidation, error) {
	d := payloadDecoder{codec.Decoder{B: payload}}
	n := d.Count(3) // key length + 2 version varints
	if n < 0 {
		return nil, d.Err()
	}
	invs := make([]Invalidation, n)
	for i := range invs {
		invs[i] = Invalidation{Key: d.key(), Version: d.Version()}
	}
	return invs, d.Err()
}

// compactItem re-homes a decoded item into its own single backing buffer
// (value bytes plus dependency-key bytes, two allocations total). Items
// decoded from a batch frame alias the whole frame's payload; a cache
// that retains one item from a large batch would otherwise pin the
// entire frame until that entry is evicted. After compaction an item
// pins exactly its own bytes, while the read path keeps the zero-copy
// decode for everything transient.
func compactItem(it kv.Item) kv.Item {
	n := len(it.Value)
	for _, e := range it.Deps {
		n += len(e.Key)
	}
	var buf []byte
	if n > 0 || it.Value != nil {
		// make with cap 0 still yields a non-nil slice, preserving the
		// nil/empty distinction for empty values.
		buf = make([]byte, 0, n)
	}
	out := it
	if it.Value != nil {
		buf = append(buf, it.Value...)
		out.Value = kv.Value(buf[:len(it.Value):len(it.Value)])
	}
	if it.Deps != nil {
		deps := make(kv.DepList, len(it.Deps))
		off := len(buf)
		for i, e := range it.Deps {
			deps[i].Version = e.Version
			if len(e.Key) == 0 {
				continue
			}
			buf = append(buf, e.Key...)
			deps[i].Key = kv.Key(unsafe.String(&buf[off], len(e.Key)))
			off += len(e.Key)
		}
		out.Deps = deps
	}
	return out
}

// --- Frame write helpers ------------------------------------------------

// writeFrame encodes one message into a pooled buffer and writes it as a
// single frame. mu, if non-nil, serializes writes on the connection.
func writeFrame(w io.Writer, mu *sync.Mutex, typ byte, id uint64, encode func([]byte) []byte) error {
	buf := getFrameBuf()
	b := beginFrame((*buf)[:0], typ, id)
	b = encode(b)
	if len(b)-frameHeaderSize > maxFramePayload {
		*buf = b
		putFrameBuf(buf)
		return ErrFrameTooLarge
	}
	b = finishFrame(b)
	*buf = b
	if mu != nil {
		mu.Lock()
	}
	_, err := w.Write(b)
	if mu != nil {
		mu.Unlock()
	}
	putFrameBuf(buf)
	return err
}

func writeRequestFrame(w io.Writer, mu *sync.Mutex, id uint64, req *Request) error {
	return writeFrame(w, mu, frameRequest, id, func(b []byte) []byte { return appendRequest(b, req) })
}

func writeResponseFrame(w io.Writer, mu *sync.Mutex, id uint64, resp *Response) error {
	return writeFrame(w, mu, frameResponse, id, func(b []byte) []byte { return appendResponse(b, resp) })
}

func writeInvalidationFrame(w io.Writer, mu *sync.Mutex, invs []Invalidation) error {
	return writeFrame(w, mu, frameInvalidations, 0, func(b []byte) []byte { return appendInvalidations(b, invs) })
}
