package wal

// Segment files: seg-%016d.wal, a 16-byte header followed by commit
// frames. The sequence number in the name and the header must agree, so
// a segment renamed or copied into the wrong slot is detected. Segments
// are created write-temp-free (O_EXCL + header + fsync file + fsync
// dir): a crash mid-creation leaves a short file that is recreated on
// the next open, never mistaken for committed history.
//
// The active (highest) segment is longer than its frames: the flusher
// keeps it zero-filled ahead of the write cursor (Log.extendLocked) and
// positions each batch into the fill, so a batch's fsync flushes data
// blocks that are already allocated under a length that is already
// durable, and commits nothing through the filesystem journal. Frames
// are never all-zero, so the fill reads back as the end of the log.
// Rotation and Close truncate the fill away: a sealed segment is
// exactly its header and frames.

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

const (
	segMagic      = "TCWS" // T-Cache WAL Segment
	snapMagic     = "TCSN" // T-Cache SNapshot
	formatVersion = 2      // 2: frames carry their batch offset (record.go)
	// fileHeaderSize covers both segment and snapshot headers:
	// [4] magic, [1] format version, [3] zero padding, [8] BE sequence.
	fileHeaderSize = 16
)

func segName(seq uint64) string  { return fmt.Sprintf("seg-%016d.wal", seq) }
func snapName(cut uint64) string { return fmt.Sprintf("snap-%016d.snap", cut) }

// parseSeqName extracts the sequence number from a seg-/snap- file name.
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+16+len(suffix) {
		return 0, false
	}
	if name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var seq uint64
	for _, c := range name[len(prefix) : len(prefix)+16] {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

func parseSegName(name string) (uint64, bool)  { return parseSeqName(name, "seg-", ".wal") }
func parseSnapName(name string) (uint64, bool) { return parseSeqName(name, "snap-", ".snap") }

// fileHeader builds the 16-byte header for a segment or snapshot file.
func fileHeader(magic string, seq uint64) []byte {
	h := make([]byte, fileHeaderSize)
	copy(h, magic)
	h[4] = formatVersion
	binary.BigEndian.PutUint64(h[8:], seq)
	return h
}

// checkFileHeader validates b's leading header. It returns a reason
// string ("" = ok); callers wrap it in the right named error.
func checkFileHeader(b []byte, magic string, seq uint64) string {
	if len(b) < fileHeaderSize {
		return "short header"
	}
	if string(b[:4]) != magic {
		return "bad magic"
	}
	if b[4] != formatVersion {
		return fmt.Sprintf("unsupported format version %d", b[4])
	}
	if got := binary.BigEndian.Uint64(b[8:16]); got != seq {
		return fmt.Sprintf("sequence mismatch: header says %d, name says %d", got, seq)
	}
	return ""
}

// createSegment creates the segment file for seq durably: exclusive
// create, header write, fsync of the file and of the directory.
func createSegment(dir string, seq uint64) (*os.File, error) {
	path := filepath.Join(dir, segName(seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(fileHeader(segMagic, seq)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// zeros is the one source of zero fill; a package-level array costs no
// heap and no per-extension allocation.
var zeros [64 << 10]byte

// writeZeros overwrites [off, off+n) of f with zeros.
func writeZeros(f *os.File, off, n int64) error {
	for n > 0 {
		chunk := zeros[:min(n, int64(len(zeros)))]
		if _, err := f.WriteAt(chunk, off); err != nil {
			return err
		}
		off += int64(len(chunk))
		n -= int64(len(chunk))
	}
	return nil
}

// listSegments returns the sequence numbers of all segment files in
// dir, sorted ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSegName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// syncDir fsyncs a directory so renames and creates within it are
// durable before the caller proceeds.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
