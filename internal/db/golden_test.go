package db

import (
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tcache/internal/codec"
	"tcache/internal/kv"
	"tcache/internal/wal"
)

var update = flag.Bool("update", false, "rewrite testdata/commit.golden from this run")

// goldenTxn is one update transaction of the golden schedule: its reads
// (in order, possibly repeated, possibly of missing keys), then its
// writes (in order, possibly repeating a key: the last value wins).
type goldenTxn struct {
	reads  []kv.Key
	writes []kv.KeyValue
}

// goldenSchedule draws n transactions over a small key space, so keys
// are read and written by the same transaction, read before they exist,
// read twice and written twice.
func goldenSchedule(seed int64, n int) []goldenTxn {
	rng := rand.New(rand.NewSource(seed))
	key := func() kv.Key {
		if rng.Intn(10) == 0 {
			return kv.Key(fmt.Sprintf("ghost%d", rng.Intn(3))) // never written
		}
		return kv.Key(fmt.Sprintf("%c%d", "abp"[rng.Intn(3)], rng.Intn(4)))
	}
	out := make([]goldenTxn, n)
	for i := range out {
		t := &out[i]
		for r := rng.Intn(5); r > 0; r-- {
			t.reads = append(t.reads, key())
		}
		if len(t.reads) > 0 && rng.Intn(4) == 0 {
			t.reads = append(t.reads, t.reads[0]) // a repeat read
		}
		for w := rng.Intn(4); w > 0; w-- {
			k := key()
			if len(t.reads) > 0 && rng.Intn(3) == 0 {
				k = t.reads[rng.Intn(len(t.reads))] // read and written
			}
			if strings.HasPrefix(string(k), "ghost") {
				k = "a0"
			}
			t.writes = append(t.writes, kv.KeyValue{Key: k, Value: kv.Value(fmt.Sprintf("v%d.%d", i, w))})
		}
		if len(t.writes) > 0 && rng.Intn(5) == 0 {
			last := t.writes[len(t.writes)-1]
			t.writes = append(t.writes, kv.KeyValue{Key: last.Key, Value: kv.Value(fmt.Sprintf("dup%d", i))})
		}
	}
	return out
}

// runGoldenTxn commits one transaction of the schedule, observing each
// read key as it is now (the schedule is sequential). The lists the
// commit answers with must be the ones it stored, by request index.
func runGoldenTxn(d *DB, g goldenTxn) (kv.Version, error) {
	res, err := d.CommitUpdate(bg, observe(d, g.reads...), g.writes)
	if err != nil {
		return kv.Version{}, err
	}
	for i, w := range g.writes {
		if item, _ := d.Get(w.Key); !slices.Equal(res.Deps[i], item.Deps) {
			return kv.Version{}, fmt.Errorf("write %d (%s) answered deps %v, stored %v", i, w.Key, res.Deps[i], item.Deps)
		}
	}
	return res.Version, nil
}

// TestCommitGolden runs a seeded sequential schedule of update
// transactions under three configurations — recency merge with pins, a
// per-key bound with positional merge, and unbounded lists — and
// compares, per commit, the version, the dependency list stored with
// each write, the commit record, the invalidations, and the bytes of
// the write-ahead-log record with testdata/commit.golden. Rewrite it
// with -update only when a change is meant to alter what a commit
// stores or logs.
func TestCommitGolden(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
		pins map[kv.Key][]kv.Key
	}{
		{"recency-pins", Config{DepBound: 2, NodeID: 1}, map[kv.Key][]kv.Key{"p0": {"a0"}, "p1": {"a1", "b1"}, "b2": {"p2"}}},
		{"boundfor-positional", Config{
			DepBoundFor: func(k kv.Key) int {
				switch k[0] {
				case 'a':
					return 1
				case 'b':
					return 3
				}
				return kv.Unbounded
			},
			DepMerge: MergePositional,
			NodeID:   2,
		}, map[kv.Key][]kv.Key{"a3": {"p3"}}},
		{"unbounded", Config{DepBound: kv.Unbounded}, nil},
	}
	var out strings.Builder
	for ci, c := range configs {
		dir := t.TempDir()
		d, err := Recover(c.cfg, dir)
		if err != nil {
			t.Fatal(err)
		}
		for owner, deps := range c.pins {
			d.Pin(owner, deps...)
		}
		var invs []Invalidation
		if _, err := d.Subscribe("golden", func(inv Invalidation) { invs = append(invs, inv) }); err != nil {
			t.Fatal(err)
		}
		var rec CommitRecord
		d.OnCommit(func(r CommitRecord) { rec = r })

		fmt.Fprintf(&out, "== %s\n", c.name)
		for i, g := range goldenSchedule(int64(ci+1), 100) {
			rec, invs = CommitRecord{}, invs[:0]
			v, err := runGoldenTxn(d, g)
			if err != nil {
				t.Fatalf("%s txn %d: %v", c.name, i, err)
			}
			fmt.Fprintf(&out, "txn %d reads=%v writes=[", i, g.reads)
			for j, w := range g.writes {
				if j > 0 {
					out.WriteByte(' ')
				}
				fmt.Fprintf(&out, "%s=%s", w.Key, w.Value)
			}
			fmt.Fprintf(&out, "] -> %s\n", v)
			fmt.Fprintf(&out, "  record id=%d version=%s reads=%v writes=%v\n", rec.TxnID, rec.Version, rec.Reads, rec.Writes)
			for _, k := range rec.Writes {
				item, _ := d.Get(k)
				fmt.Fprintf(&out, "  stored %s=%s@%s deps=%v\n", k, item.Value, item.Version, item.Deps)
			}
			fmt.Fprintf(&out, "  invalidations %v\n", invs)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		log, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		if _, err := log.Replay(wal.ReplayHandler{Record: func(r wal.Record) error {
			fmt.Fprintf(&out, "wal %d %s\n", n, hex.EncodeToString(codec.AppendRecord(nil, &r)))
			n++
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
	}

	path := filepath.Join("testdata", "commit.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("commit golden differs at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("commit golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}
