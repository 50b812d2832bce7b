package wal

// The manifest is the log's root pointer: a tiny text file naming the
// first live segment and the snapshot (if any) that covers everything
// before it. It is replaced atomically (write temp, fsync, rename,
// fsync dir) and ends with an "ok" trailer line, so a torn manifest
// write is detected rather than trusted. Segment rotation does NOT
// touch the manifest — the live segment set is "every seg file with
// sequence ≥ first-seg", which must be contiguous.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

const (
	manifestName   = "MANIFEST"
	manifestHeader = "tcache-wal v1"
)

// manifest is the decoded MANIFEST file.
type manifest struct {
	// FirstSeg is the lowest live segment sequence; earlier segments are
	// covered by the snapshot and may be deleted.
	FirstSeg uint64
	// Snapshot is the snapshot file name covering segments < FirstSeg
	// ("" when the log has never been snapshotted).
	Snapshot string
}

// encodeManifest renders m in the line-oriented MANIFEST format.
func encodeManifest(m manifest) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nfirst-seg %d\n", manifestHeader, m.FirstSeg)
	if m.Snapshot != "" {
		fmt.Fprintf(&b, "snapshot %s\n", m.Snapshot)
	}
	b.WriteString("ok\n")
	return []byte(b.String())
}

// parseManifest decodes MANIFEST bytes; any malformed line, unknown
// header, or missing "ok" trailer is corruption (the manifest is
// written atomically — there is no torn-tail tolerance here).
func parseManifest(path string, b []byte) (manifest, error) {
	var m manifest
	corrupt := func(reason string) (manifest, error) {
		return manifest{}, &CorruptManifestError{Path: path, Reason: reason}
	}
	sc := bufio.NewScanner(strings.NewReader(string(b)))
	if !sc.Scan() || sc.Text() != manifestHeader {
		return corrupt("bad header")
	}
	sawFirst, sawOK := false, false
	for sc.Scan() {
		line := sc.Text()
		if sawOK {
			return corrupt("content after ok trailer")
		}
		switch {
		case line == "ok":
			sawOK = true
		case strings.HasPrefix(line, "first-seg "):
			n, err := strconv.ParseUint(line[len("first-seg "):], 10, 64)
			if err != nil || n == 0 {
				return corrupt("bad first-seg")
			}
			m.FirstSeg = n
			sawFirst = true
		case strings.HasPrefix(line, "snapshot "):
			name := line[len("snapshot "):]
			if _, ok := parseSnapName(name); !ok {
				return corrupt("bad snapshot name")
			}
			m.Snapshot = name
		default:
			return corrupt("unknown line")
		}
	}
	if !sawOK || !sawFirst {
		return corrupt("missing ok trailer or first-seg")
	}
	return m, nil
}

// readManifest loads dir's MANIFEST. ok=false means the file does not
// exist (a fresh directory).
func readManifest(dir string) (manifest, bool, error) {
	path := filepath.Join(dir, manifestName)
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return manifest{}, false, nil
	}
	if err != nil {
		return manifest{}, false, err
	}
	m, err := parseManifest(path, b)
	return m, err == nil, err
}

// writeManifest atomically replaces dir's MANIFEST.
func writeManifest(dir string, m manifest) error {
	path := filepath.Join(dir, manifestName)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(encodeManifest(m)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(dir)
}
