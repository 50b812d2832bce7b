package db

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"testing"

	"tcache/internal/kv"
)

// TestCrashWriterHelper is not a test: it is the child half of
// TestCrashTortureProcessKill, re-executed as a separate process. It
// commits an endless sequence of dependent transactions against a
// durable database and acknowledges each on stdout, until the parent
// kills it with SIGKILL at an arbitrary point — mid-record, mid-fsync,
// mid-rotation, or mid-snapshot.
func TestCrashWriterHelper(t *testing.T) {
	dir := os.Getenv("TCACHE_CRASH_DIR")
	if dir == "" {
		t.Skip("helper process for TestCrashTortureProcessKill")
	}
	d, err := Recover(Config{
		DepBound:       5,
		WALSync:        true,
		WALSegmentSize: 256, // constant rotations, and snapshots as the log outgrows each image
	}, dir)
	if err != nil {
		fmt.Printf("recover-error %v\n", err)
		os.Exit(1)
	}
	// Resume where the previous incarnation stopped: the highest k<i>
	// already present.
	start := 0
	for {
		if _, ok := d.Get(kv.Key(fmt.Sprintf("k%d", start))); !ok {
			break
		}
		start++
	}
	fmt.Printf("start %d\n", start)
	for i := start; ; i++ {
		var reads []kv.Key
		if i > 0 {
			// Read the previous key so the new one depends on it; the
			// parent verifies the dependency metadata survived the kill.
			reads = []kv.Key{kv.Key(fmt.Sprintf("k%d", i-1))}
		}
		res, err := d.CommitUpdate(bg, observe(d, reads...), []kv.KeyValue{{Key: kv.Key(fmt.Sprintf("k%d", i)), Value: kv.Value(fmt.Sprintf("v%d", i))}})
		v := res.Version
		if err != nil {
			fmt.Printf("commit-error %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("ack %d %d\n", i, v.Counter)
	}
}

// TestCrashTortureProcessKill SIGKILLs a committing child process over
// and over — the kill lands mid-commit, mid-fsync, mid-rotation, or
// mid-snapshot-rename — and verifies after each kill that recovery
// yields an exact committed prefix: every acknowledged transaction is
// present with its value and dependency metadata, the recovered key set
// has no holes, and the version counter never regresses below an
// acknowledged commit.
func TestCrashTortureProcessKill(t *testing.T) {
	if testing.Short() {
		t.Skip("process-kill torture is slow")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	maxAcked, maxCounter := -1, uint64(0)

	rounds := 6
	for round := 0; round < rounds; round++ {
		// Vary how long the child runs so kills land in different phases
		// (first commits, segment rotations, the snapshots they trigger).
		targetAcks := 5 + round*9

		cmd := exec.Command(exe, "-test.run=^TestCrashWriterHelper$", "-test.v")
		cmd.Env = append(os.Environ(), "TCACHE_CRASH_DIR="+dir)
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}

		sc := bufio.NewScanner(out)
		acks := 0
		for sc.Scan() {
			var i int
			var c uint64
			if n, _ := fmt.Sscanf(sc.Text(), "ack %d %d", &i, &c); n == 2 {
				if i > maxAcked {
					maxAcked = i
				}
				if c > maxCounter {
					maxCounter = c
				}
				acks++
				if acks >= targetAcks {
					break
				}
			}
		}
		if acks == 0 {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatalf("round %d: child produced no acks", round)
		}
		// SIGKILL immediately: the child is mid-commit right now.
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		_ = cmd.Wait()

		verifyCrashRecovery(t, dir, round, maxAcked, maxCounter)
	}
}

// verifyCrashRecovery recovers dir and asserts the committed-prefix
// invariants against the acknowledgements read so far.
func verifyCrashRecovery(t *testing.T, dir string, round, maxAcked int, maxCounter uint64) {
	t.Helper()
	d, err := Recover(Config{DepBound: 5}, dir)
	if err != nil {
		t.Fatalf("round %d: recovery failed: %v", round, err)
	}
	defer d.Close()

	// Every acknowledged commit must be present, with value and deps.
	for i := 0; i <= maxAcked; i++ {
		item, ok := d.Get(kv.Key(fmt.Sprintf("k%d", i)))
		if !ok {
			t.Fatalf("round %d: acked k%d lost after kill", round, i)
		}
		if want := fmt.Sprintf("v%d", i); string(item.Value) != want {
			t.Fatalf("round %d: k%d = %q, want %q", round, i, item.Value, want)
		}
		if i > 0 {
			if _, ok := item.Deps.Lookup(kv.Key(fmt.Sprintf("k%d", i-1))); !ok {
				t.Fatalf("round %d: k%d lost its dependency on k%d: %v", round, i, i-1, item.Deps)
			}
		}
	}
	// The recovered key set is a contiguous prefix: unacknowledged
	// commits may survive (the ack pipe lags the log) but never with a
	// hole below them.
	top := maxAcked
	for {
		if _, ok := d.Get(kv.Key(fmt.Sprintf("k%d", top+1))); !ok {
			break
		}
		top++
	}
	// (+round: each earlier verify pass committed one probe key.)
	if n := d.Len(); n != top+1+round {
		t.Fatalf("round %d: %d keys recovered, want contiguous prefix of %d (+%d probes)",
			round, n, top+1, round)
	}
	// The version counter floors at every acknowledged commit, so
	// versions minted after restart stay monotone (eq. 1/eq. 2 depend
	// on this).
	if got := d.Recovery().Counter; got < maxCounter {
		t.Fatalf("round %d: recovered counter %d below acked %d", round, got, maxCounter)
	}
	// And the database keeps working: one more commit.
	res, err := d.CommitUpdate(bg, nil, []kv.KeyValue{{Key: kv.Key(fmt.Sprintf("probe%d", round)), Value: kv.Value("ok")}})
	v := res.Version
	if err != nil {
		t.Fatalf("round %d: post-recovery commit: %v", round, err)
	}
	if v.Counter <= maxCounter {
		t.Fatalf("round %d: post-recovery version %d not above acked %d", round, v.Counter, maxCounter)
	}
}
