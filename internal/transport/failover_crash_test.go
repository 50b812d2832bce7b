package transport

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"testing"
	"time"

	"tcache/internal/chaos"
	"tcache/internal/db"
	"tcache/internal/kv"
)

// TestFailoverPrimaryHelper is not a test: it is the child half of
// TestFailoverSIGKILLTorture, re-executed as a separate process. It runs
// a durable primary with synchronous replication (ReplMinSync=1), prints
// its listen address, then commits numbered keys forever — advancing to
// the next key only after a standby acknowledged the current one, and
// acknowledging each on stdout as it does — until the parent SIGKILLs
// it mid-commit, mid-frame, or mid-snapshot.
func TestFailoverPrimaryHelper(t *testing.T) {
	dir := os.Getenv("TCACHE_FAILOVER_DIR")
	if dir == "" {
		t.Skip("helper process for TestFailoverSIGKILLTorture")
	}
	d, err := db.Recover(db.Config{
		WALSync:        true,
		ReplMinSync:    1,
		WALSegmentSize: 512, // constant rotations; the snapshots they trigger force image resyncs
	}, dir)
	if err != nil {
		fmt.Printf("recover-error %v\n", err)
		os.Exit(1)
	}
	srv := NewDBServer(d, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		fmt.Printf("listen-error %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("addr %s\n", addr)
	for i := 0; ; {
		k := kv.Key(fmt.Sprintf("k%d", i))
		v := kv.Value(fmt.Sprintf("v%d", i))
		// Bounded wait for the standby ack: a replication frame the chaos
		// link swallowed stalls this commit until the NEXT commit's frame
		// exposes the gap — so on timeout, re-commit the SAME key and let
		// that happen. The key is committed locally on the first attempt
		// either way; retrying it just mints a fresh version without
		// growing the keyspace, so the state image a chaos-forced resync
		// must stream stays bounded by replication progress instead of by
		// wall-clock — an unbounded image makes each retransfer less
		// likely to survive the lossy link than the last. The timeout is
		// also the heal latency of a dropped frame, so keep it short
		// relative to the parent's deadline.
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		ver, err := d.ValidatedUpdate(ctx, nil, []kv.KeyValue{{Key: k, Value: v}})
		cancel()
		if err != nil {
			fmt.Printf("stall %d %v\n", i, err)
			continue
		}
		fmt.Printf("ack %d %d\n", i, ver.Counter)
		i++
	}
}

// TestFailoverSIGKILLTorture is the PR's acceptance scenario: a durable
// primary under synchronous replication is SIGKILLed mid-load while the
// replication link suffers 20% chunk loss, reordering jitter, and
// connection kills. The surviving standby is promoted and must hold an
// exact contiguous committed prefix: every acknowledged write present
// with its value, no holes below the highest acknowledged key, the
// version counter at or above every acknowledged version, post-promotion
// commits strictly higher, and the standby's relayed invalidation stream
// covering every acknowledged key (the edge's read-your-invalidations
// survives the failover).
func TestFailoverSIGKILLTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("process-kill torture is slow")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^TestFailoverPrimaryHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "TCACHE_FAILOVER_DIR="+t.TempDir())
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()

	sc := bufio.NewScanner(out)
	var primaryAddr string
	for sc.Scan() {
		if n, _ := fmt.Sscanf(sc.Text(), "addr %s", &primaryAddr); n == 1 {
			break
		}
	}
	if primaryAddr == "" {
		t.Fatal("helper never printed its address")
	}

	// The acceptance failure model: 20% loss, reordering, conn kills.
	link := chaos.NewLink(chaos.ConnConfig{
		DropRate:  0.20,
		KillRate:  0.02,
		BaseDelay: 100 * time.Microsecond,
		Jitter:    time.Millisecond,
		Seed:      7,
	})
	paddr, stopProxy, err := link.Proxy(primaryAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer stopProxy()

	sd, err := db.Recover(db.Config{WALSync: false, NodeID: 1}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	sd.SetStandby(primaryAddr)

	// An edge's view: record every invalidation the standby relays.
	var (
		invMu   sync.Mutex
		invSeen = map[kv.Key]kv.Version{}
	)
	cancelSub, err := sd.Subscribe("edge", func(inv db.Invalidation) {
		invMu.Lock()
		if invSeen[inv.Key].Less(inv.Version) {
			invSeen[inv.Key] = inv.Version
		}
		invMu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancelSub()

	sctx, scancel := context.WithCancel(context.Background())
	standbyDone := make(chan struct{})
	go func() {
		defer close(standbyDone)
		RunStandby(sctx, sd, StandbyConfig{Primary: paddr, Name: "torture", Logf: t.Logf})
	}()
	defer func() { scancel(); <-standbyDone }()

	// Collect acknowledged commits, then SIGKILL mid-flight. Every
	// dropped frame costs the helper one ack-timeout before the next
	// commit exposes the gap and a state transfer heals it, so under
	// 20% loss the ack rate is a few per second — the deadline is sized
	// for a loaded single-core CI box running the suite in parallel.
	const targetAcks = 30
	maxAcked, maxCounter, acks := -1, uint64(0), 0
	deadline := time.After(150 * time.Second)
	ackCh := make(chan [2]uint64, 64)
	go func() {
		defer close(ackCh)
		for sc.Scan() {
			var i, c uint64
			if n, _ := fmt.Sscanf(sc.Text(), "ack %d %d", &i, &c); n == 2 {
				ackCh <- [2]uint64{i, c}
			}
		}
	}()
collect:
	for acks < targetAcks {
		select {
		case a, ok := <-ackCh:
			if !ok {
				break collect
			}
			if int(a[0]) > maxAcked {
				maxAcked = int(a[0])
			}
			if a[1] > maxCounter {
				maxCounter = a[1]
			}
			acks++
		case <-deadline:
			t.Fatalf("only %d/%d acks within the deadline (replication link not making progress)", acks, targetAcks)
		}
	}
	if acks == 0 {
		t.Fatal("helper produced no acks")
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL, mid-commit
		t.Fatal(err)
	}
	_ = cmd.Wait()

	// Promote the survivor and verify the committed prefix.
	counter, err := sd.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if counter < maxCounter {
		t.Fatalf("promoted counter %d below acked %d", counter, maxCounter)
	}
	for i := 0; i <= maxAcked; i++ {
		item, ok := sd.Get(kv.Key(fmt.Sprintf("k%d", i)))
		if !ok {
			t.Fatalf("acked k%d lost in failover", i)
		}
		if want := fmt.Sprintf("v%d", i); string(item.Value) != want {
			t.Fatalf("k%d = %q, want %q", i, item.Value, want)
		}
	}
	// Contiguity: unacknowledged commits may have made it (the ack pipe
	// lags replication) but never with a hole below them.
	top := maxAcked
	for {
		if _, ok := sd.Get(kv.Key(fmt.Sprintf("k%d", top+1))); !ok {
			break
		}
		top++
	}
	if n := sd.Len(); n != top+1 {
		t.Fatalf("%d keys on promoted standby, want contiguous prefix of %d", n, top+1)
	}
	// The relayed invalidation stream covered every acknowledged key.
	invMu.Lock()
	for i := 0; i <= maxAcked; i++ {
		if _, ok := invSeen[kv.Key(fmt.Sprintf("k%d", i))]; !ok {
			invMu.Unlock()
			t.Fatalf("acked k%d never invalidated through the standby relay", i)
		}
	}
	invMu.Unlock()
	// Post-promotion commits mint strictly higher versions.
	v, err := sd.ValidatedUpdate(context.Background(), nil, []kv.KeyValue{{Key: "probe", Value: kv.Value("ok")}})
	if err != nil {
		t.Fatalf("post-promotion commit: %v", err)
	}
	if v.Counter <= maxCounter {
		t.Fatalf("post-promotion version %d not above acked %d", v.Counter, maxCounter)
	}
}
