package wal

// On-disk framing (format version 2). Every frame is
//
//	[4] payload length (LE uint32)
//	[4] CRC32C of payload ‖ batch offset (LE uint32)
//	[4] batch offset (LE uint32)
//	[…] payload
//
// The batch offset is the frame's distance from the first byte of the
// group-commit batch it was written in, so a frame at file offset Y
// says "my batch began at Y − off". Batches are the unit of fsync;
// recovery uses the field to tell the torn final batch from damaged
// durable history (see replay.go). Snapshot frames carry 0. The first
// payload byte is the frame kind, so segments and snapshots share one
// framing. What follows the kind byte is laid out
// by internal/codec — the same record and entry encoding the
// replication stream ships — and decodes into items that own their
// bytes, one buffer per written object: recovered items live for the
// life of the process and must not pin 64 MiB segment reads.

import (
	"encoding/binary"
	"hash/crc32"
	"math"
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

// frameHeaderSize is the [len][crc][batch offset] prefix of every frame.
const frameHeaderSize = 12

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

// openFrame fills in the length and the payload checksum of frame (a
// header's worth of space followed by exactly the payload), leaving the
// batch offset open: an appender computes this much without holding the
// log's mutex, and closeFrame completes it once the offset is known.
func openFrame(frame []byte) {
	payload := frame[frameHeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
}

// closeFrame stamps the open frame at frame[0] with its batch offset and
// folds the offset into the checksum. The field saturates; recovery
// never looks further than scanWindow past the damage it is judging, so
// a saturated offset still places the batch start before that damage.
func closeFrame(frame []byte, off int) {
	binary.LittleEndian.PutUint32(frame[8:12], uint32(min(uint64(off), math.MaxUint32)))
	crc := crc32.Update(binary.LittleEndian.Uint32(frame[4:8]), castagnoli, frame[8:12])
	binary.LittleEndian.PutUint32(frame[4:8], crc)
}

// closeFrames closes every open frame in batch[from:], each with its
// position in batch as the offset.
func closeFrames(batch []byte, from int) {
	for from < len(batch) {
		closeFrame(batch[from:], from)
		from += frameHeaderSize + int(binary.LittleEndian.Uint32(batch[from:from+4]))
	}
}

// appendFramed appends payload as a complete frame that is a batch of
// its own (offset 0): the snapshot writer's framing.
func appendFramed(dst, payload []byte) []byte {
	start := len(dst)
	dst = append(append(dst, make([]byte, frameHeaderSize)...), payload...)
	openFrame(dst[start:])
	closeFrame(dst[start:], 0)
	return dst
}

// appendRecordFrame appends rec's open frame to dst, encoding the
// payload in place behind the header.
func appendRecordFrame(dst []byte, rec *Record) ([]byte, error) {
	start := len(dst)
	dst = appendRecordPayload(append(dst, make([]byte, frameHeaderSize)...), rec)
	if len(dst)-start-frameHeaderSize > maxRecordSize {
		return dst[:start], ErrRecordTooLarge
	}
	openFrame(dst[start:])
	return dst, nil
}

// decodeRecordPayload decodes a commit record from a frame payload
// (including the kind byte). Trailing payload bytes are an error: the
// CRC matched, so extra bytes mean an encoder/decoder mismatch.
func decodeRecordPayload(p []byte) (Record, error) {
	d := codec.Decoder{B: p}
	kind, rec := d.Byte(), codec.DecodeRecord(&d)
	if kind != kindCommit || d.Err() != nil || d.Remaining() != 0 {
		return Record{}, codec.ErrTruncated
	}
	return rec, nil
}

// decodeSnapshotEntry decodes one snapshot entry from a frame payload
// (including the kind byte).
func decodeSnapshotEntry(p []byte) (SnapshotEntry, error) {
	d := codec.Decoder{B: p}
	kind, e := d.Byte(), codec.DecodeSnapshotEntry(&d)
	if kind != kindSnapEntry || d.Err() != nil || d.Remaining() != 0 {
		return SnapshotEntry{}, codec.ErrTruncated
	}
	return e, nil
}
