package wal

// On-disk framing. Every frame is
//
//	[4] payload length (LE uint32)
//	[4] CRC32C of payload (LE uint32)
//	[…] payload
//
// and the first payload byte is the frame kind, so segments and
// snapshots share one framing. What follows the kind byte is laid out
// by internal/codec — the same record and entry encoding the
// replication stream ships — decoded in Copy mode: recovered items live
// for the life of the process and must not pin 64 MiB segment reads.

import (
	"encoding/binary"
	"hash/crc32"
	"sync"

	"tcache/internal/codec"
)

// Frame kinds. Segments hold only kindCommit frames; snapshot files are
// a kindSnapMeta frame, kindSnapEntry frames, then a kindSnapFooter.
const (
	kindCommit     = 1
	kindSnapMeta   = 2
	kindSnapEntry  = 3
	kindSnapFooter = 4
)

// maxRecordSize bounds one frame's payload, so a corrupt or hostile
// length field can never force a giant allocation during replay.
const maxRecordSize = 64 << 20

// frameHeaderSize is the [len][crc] prefix of every frame.
const frameHeaderSize = 8

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64), shared by all frame writers and readers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// The logged values; their byte layout lives in internal/codec.
type (
	Entry         = codec.Entry
	Record        = codec.Record
	SnapshotEntry = codec.SnapshotEntry
)

// --- Encode buffers -----------------------------------------------------

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

const maxPooledBuf = 1 << 20

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// appendRecordPayload encodes a commit record's frame payload.
func appendRecordPayload(b []byte, rec *Record) []byte {
	return codec.AppendRecord(append(b, kindCommit), rec)
}

// appendSnapshotEntry encodes one snapshot entry's frame payload.
func appendSnapshotEntry(b []byte, e *SnapshotEntry) []byte {
	return codec.AppendSnapshotEntry(append(b, kindSnapEntry), e)
}

// appendFramed appends the [len][crc] header and payload to dst.
func appendFramed(dst, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// decodeRecordPayload decodes a commit record from a frame payload
// (including the kind byte). Trailing payload bytes are an error: the
// CRC matched, so extra bytes mean an encoder/decoder mismatch.
func decodeRecordPayload(p []byte) (Record, error) {
	d := codec.Decoder{B: p, Copy: true}
	kind, rec := d.Byte(), codec.DecodeRecord(&d)
	if kind != kindCommit || d.Err() != nil || d.Remaining() != 0 {
		return Record{}, codec.ErrTruncated
	}
	return rec, nil
}

// decodeSnapshotEntry decodes one snapshot entry from a frame payload
// (including the kind byte).
func decodeSnapshotEntry(p []byte) (SnapshotEntry, error) {
	d := codec.Decoder{B: p, Copy: true}
	kind, e := d.Byte(), codec.DecodeSnapshotEntry(&d)
	if kind != kindSnapEntry || d.Err() != nil || d.Remaining() != 0 {
		return SnapshotEntry{}, codec.ErrTruncated
	}
	return e, nil
}

// encodeRecord encodes rec's frame payload into a pooled buffer; the
// caller frames it and then calls release.
func encodeRecord(rec *Record) (payload []byte, release func(), err error) {
	buf := getBuf()
	payload = appendRecordPayload((*buf)[:0], rec)
	*buf = payload
	if len(payload) > maxRecordSize {
		putBuf(buf)
		return nil, nil, ErrRecordTooLarge
	}
	return payload, func() { putBuf(buf) }, nil
}
