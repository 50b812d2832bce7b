package db

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"tcache/internal/kv"
	"tcache/internal/wal"
)

func open(t *testing.T, cfg Config) *DB {
	t.Helper()
	d := Open(cfg)
	t.Cleanup(func() { d.Close() })
	return d
}

var bg = context.Background()

// observe is what lock-free reads of keys see now: a sequential caller's
// snapshot, valid at the next commit.
func observe(d *DB, keys ...kv.Key) []kv.ObservedRead {
	out := make([]kv.ObservedRead, len(keys))
	for i, k := range keys {
		item, found := d.Get(k)
		out[i] = kv.ObservedRead{Key: k, Version: item.Version, Found: found}
	}
	return out
}

// mustCommit commits reads (observed now) and writes, failing the test on
// any error.
func mustCommit(t *testing.T, d *DB, reads []kv.Key, writes ...kv.KeyValue) kv.Version {
	t.Helper()
	res, err := d.CommitUpdate(bg, observe(d, reads...), writes)
	if err != nil {
		t.Fatalf("CommitUpdate: %v", err)
	}
	return res.Version
}

// write reads keys and writes "v" to each, in one transaction.
func write(t *testing.T, d *DB, keys ...kv.Key) kv.Version {
	t.Helper()
	writes := make([]kv.KeyValue, len(keys))
	for i, k := range keys {
		writes[i] = kv.KeyValue{Key: k, Value: kv.Value("v")}
	}
	return mustCommit(t, d, keys, writes...)
}

func TestCommitMakesWritesVisible(t *testing.T) {
	d := open(t, Config{DepBound: 5})
	v := mustCommit(t, d, nil, kv.KeyValue{Key: "a", Value: kv.Value("hello")})
	it, ok := d.Get("a")
	if !ok || string(it.Value) != "hello" || it.Version != v {
		t.Fatalf("Get = %+v, %v; want hello@%v", it, ok, v)
	}
}

func TestCommitVersionExceedsAccessed(t *testing.T) {
	d := open(t, Config{DepBound: 5, NodeID: 3})
	d.Seed("a", kv.Value("x"), kv.Version{Counter: 100, Node: 9})
	v := mustCommit(t, d, []kv.Key{"a"}, kv.KeyValue{Key: "b", Value: kv.Value("y")})
	if v.Counter <= 100 {
		t.Fatalf("commit version %v not above read version 100", v)
	}
	if v.Node != 3 {
		t.Fatalf("version node = %d, want 3", v.Node)
	}
}

func TestVersionsStrictlyIncrease(t *testing.T) {
	d := open(t, Config{DepBound: 5})
	var last kv.Version
	for i := 0; i < 20; i++ {
		v := write(t, d, kv.Key(fmt.Sprintf("k%d", i%3)))
		if !last.Less(v) {
			t.Fatalf("version %v not greater than prior %v", v, last)
		}
		last = v
	}
}

func TestDependencyListsPerPaperExample(t *testing.T) {
	// §III-A: after a txn touches o1 and o2, subsequent readers of o1
	// must learn that it depends on o2 at the new version.
	d := open(t, Config{DepBound: 5})
	write(t, d, "o1") // seed with independent histories
	write(t, d, "o2")

	vt := mustCommit(t, d, []kv.Key{"o1", "o2"},
		kv.KeyValue{Key: "o1", Value: kv.Value("new")}, kv.KeyValue{Key: "o2", Value: kv.Value("new")})

	o1, _ := d.Get("o1")
	if got, ok := o1.Deps.Lookup("o2"); !ok || got != vt {
		t.Fatalf("o1 deps = %v, want (o2,%v)", o1.Deps, vt)
	}
	if _, ok := o1.Deps.Lookup("o1"); ok {
		t.Fatalf("o1 deps contain self: %v", o1.Deps)
	}
	o2, _ := d.Get("o2")
	if got, ok := o2.Deps.Lookup("o1"); !ok || got != vt {
		t.Fatalf("o2 deps = %v, want (o1,%v)", o2.Deps, vt)
	}
}

func TestDependencyInheritance(t *testing.T) {
	// c depends on b; then a txn touching {a, c} must give a a transitive
	// dependency on b.
	d := open(t, Config{DepBound: 5})
	write(t, d, "b")
	write(t, d, "b", "c") // c now depends on b
	write(t, d, "a", "c") // a inherits c's dependency on b

	a, _ := d.Get("a")
	if _, ok := a.Deps.Lookup("b"); !ok {
		t.Fatalf("a did not inherit dependency on b: %v", a.Deps)
	}
}

func TestDepBoundTruncation(t *testing.T) {
	d := open(t, Config{DepBound: 2})
	for i := 0; i < 6; i++ {
		write(t, d, "hub", kv.Key(fmt.Sprintf("leaf%d", i)))
	}
	hub, _ := d.Get("hub")
	if len(hub.Deps) > 2 {
		t.Fatalf("deps exceed bound: %v", hub.Deps)
	}
	// Most recent co-access must be present.
	if _, ok := hub.Deps.Lookup("leaf5"); !ok {
		t.Fatalf("most recent dependency evicted: %v", hub.Deps)
	}
}

func TestDepBoundZeroDisablesTracking(t *testing.T) {
	d := open(t, Config{DepBound: 0})
	write(t, d, "a", "b")
	a, _ := d.Get("a")
	if len(a.Deps) != 0 {
		t.Fatalf("DepBound=0 stored deps: %v", a.Deps)
	}
}

func TestDepUnbounded(t *testing.T) {
	d := open(t, Config{DepBound: kv.Unbounded})
	keys := []kv.Key{"a", "b", "c", "d", "e", "f", "g"}
	write(t, d, keys...)
	a, _ := d.Get("a")
	if len(a.Deps) != len(keys)-1 {
		t.Fatalf("unbounded deps = %v, want all %d co-written keys", a.Deps, len(keys)-1)
	}
}

// TestReadMissingKey: a transaction that observed a key missing commits
// while it still is, and the commit record lists the read at the zero
// version; once the key exists the same observation conflicts.
func TestReadMissingKey(t *testing.T) {
	d := open(t, Config{DepBound: 5})
	var rec CommitRecord
	d.OnCommit(func(r CommitRecord) { rec = r })
	ghost := []kv.ObservedRead{{Key: "ghost"}}
	if _, err := d.CommitUpdate(bg, ghost, []kv.KeyValue{{Key: "w", Value: kv.Value("x")}}); err != nil {
		t.Fatal(err)
	}
	if len(rec.Reads) != 1 || rec.Reads[0] != (ReadRecord{Key: "ghost"}) {
		t.Fatalf("record reads = %+v, want ghost at the zero version", rec.Reads)
	}
	write(t, d, "ghost")
	if _, err := d.CommitUpdate(bg, ghost, nil); !errors.Is(err, ErrConflict) {
		t.Fatalf("missing-key observation of an existing key = %v, want ErrConflict", err)
	}
}

func TestReadOnlyUpdateTxnCommits(t *testing.T) {
	d := open(t, Config{DepBound: 5})
	write(t, d, "a")
	v := mustCommit(t, d, []kv.Key{"a"})
	if !v.IsZero() {
		t.Fatalf("read-only commit minted version %v", v)
	}
}

// TestAbortDiscardsWrites: a transaction that fails validation applies
// none of its writes, and releases its locks.
func TestAbortDiscardsWrites(t *testing.T) {
	d := open(t, Config{DepBound: 5})
	write(t, d, "a")
	before, _ := d.Get("a")
	stale := []kv.ObservedRead{{Key: "a", Version: kv.Version{Counter: 1 << 40}, Found: true}}
	if _, err := d.CommitUpdate(bg, stale, []kv.KeyValue{{Key: "a", Value: kv.Value("changed")}, {Key: "b", Value: kv.Value("new")}}); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale commit = %v, want ErrConflict", err)
	}
	if _, ok := d.Get("b"); ok {
		t.Fatal("abort leaked a write of a new key")
	}
	after, _ := d.Get("a")
	if after.Version != before.Version || string(after.Value) != string(before.Value) {
		t.Fatal("abort leaked writes")
	}
	// Locks must be released: another txn can write immediately.
	write(t, d, "a")
}

func TestInvalidationsEmitted(t *testing.T) {
	d := open(t, Config{DepBound: 5})
	var got []Invalidation
	cancel, err := d.Subscribe("c1", func(inv Invalidation) { got = append(got, inv) })
	if err != nil {
		t.Fatal(err)
	}
	v := write(t, d, "a", "b")
	if len(got) != 2 {
		t.Fatalf("got %d invalidations, want 2", len(got))
	}
	for _, inv := range got {
		if inv.Version != v {
			t.Fatalf("invalidation version %v, want %v", inv.Version, v)
		}
	}
	cancel()
	write(t, d, "a")
	if len(got) != 2 {
		t.Fatal("unsubscribed sink still receiving")
	}
}

func TestSubscribeDuplicateNameRejected(t *testing.T) {
	d := open(t, Config{})
	cancel, err := d.Subscribe("edge", func(Invalidation) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Subscribe("edge", func(Invalidation) {}); !errors.Is(err, ErrDuplicateSubscriber) {
		t.Fatalf("duplicate Subscribe = %v, want ErrDuplicateSubscriber", err)
	}
	cancel()
	// The name is free again after unsubscribing.
	cancel2, err := d.Subscribe("edge", func(Invalidation) {})
	if err != nil {
		t.Fatalf("re-Subscribe after cancel = %v", err)
	}
	cancel2()
}

// TestSubscribersHearCommitsInNameOrder: each commit reaches its
// subscribers in name order, however they were registered — across
// commits, and after one of them leaves and rejoins.
func TestSubscribersHearCommitsInNameOrder(t *testing.T) {
	d := open(t, Config{})
	var heard []string
	subscribe := func(name string) func() {
		cancel, err := d.Subscribe(name, func(Invalidation) { heard = append(heard, name) })
		if err != nil {
			t.Fatal(err)
		}
		return cancel
	}
	for _, name := range []string{"edge-b", "edge-c"} {
		defer subscribe(name)()
	}
	subscribe("edge-a")()
	defer subscribe("edge-a")()
	for i := 0; i < 100; i++ {
		heard = heard[:0]
		mustCommit(t, d, nil, kv.KeyValue{Key: kv.Key(fmt.Sprintf("k%d", i)), Value: kv.Value("v")})
		if fmt.Sprint(heard) != "[edge-a edge-b edge-c]" {
			t.Fatalf("commit %d reached its subscribers in the order %v", i, heard)
		}
	}
}

// TestCancelledTxnUnblocksLockWait: a transaction queued for a lock
// returns ctx's error when cancelled, having taken the lock of the key
// it had already locked (a, before k in key order) and released it.
func TestCancelledTxnUnblocksLockWait(t *testing.T) {
	d := open(t, Config{})
	write(t, d, "k")
	hold, err := d.HoldKey(bg, "k")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := d.CommitUpdate(ctx, observe(d, "k"), []kv.KeyValue{{Key: "a", Value: kv.Value("waiter")}})
		errc <- err
	}()
	if err := hold.Queued(bg, 1); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled lock wait = %v, want context.Canceled", err)
	}

	// The cancelled waiter withdrew from k's queue and released a: a
	// writer of a commits while k is still held, and one of k as soon as
	// the hold ends.
	mustCommit(t, d, nil, kv.KeyValue{Key: "a", Value: kv.Value("next")})
	hold.Release()
	mustCommit(t, d, []kv.Key{"k"}, kv.KeyValue{Key: "k", Value: kv.Value("next")})
	if it, _ := d.Get("a"); string(it.Value) != "next" {
		t.Fatalf("a = %q, want next: the cancelled transaction wrote", it.Value)
	}
}

func TestCommitUpdatePreCancelled(t *testing.T) {
	d := open(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.CommitUpdate(ctx, nil, []kv.KeyValue{{Key: "k", Value: kv.Value("v")}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("CommitUpdate = %v, want context.Canceled", err)
	}
	if _, ok := d.Get("k"); ok {
		t.Fatal("a cancelled transaction wrote")
	}
}

func TestCommitRecordContents(t *testing.T) {
	d := open(t, Config{DepBound: 5})
	seedV := write(t, d, "r")
	var rec CommitRecord
	d.OnCommit(func(r CommitRecord) { rec = r })

	prev := rec.TxnID
	v := mustCommit(t, d, []kv.Key{"r"}, kv.KeyValue{Key: "w", Value: kv.Value("x")})

	if rec.Version != v || rec.TxnID <= prev {
		t.Fatalf("record = %+v", rec)
	}
	if len(rec.Reads) != 1 || rec.Reads[0].Key != "r" || rec.Reads[0].Version != seedV {
		t.Fatalf("record reads = %+v, want r@%v", rec.Reads, seedV)
	}
	if len(rec.Writes) != 1 || rec.Writes[0] != "w" {
		t.Fatalf("record writes = %+v", rec.Writes)
	}
}

func TestCommitHooksSeeVersionOrder(t *testing.T) {
	d := open(t, Config{DepBound: 5})
	var versions []kv.Version
	d.OnCommit(func(r CommitRecord) { versions = append(versions, r.Version) })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				w := []kv.KeyValue{{Key: kv.Key(fmt.Sprintf("g%d-%d", g, i)), Value: kv.Value("v")}}
				if _, err := d.CommitUpdate(bg, nil, w); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 1; i < len(versions); i++ {
		if !versions[i-1].Less(versions[i]) {
			t.Fatalf("hook saw out-of-order versions at %d: %v then %v", i, versions[i-1], versions[i])
		}
	}
}

// TestMultiShardCommitAtomicity: one commit whose keys span several of
// the store's stripes makes every write visible at the one version.
func TestMultiShardCommitAtomicity(t *testing.T) {
	d := open(t, Config{DepBound: 5})
	v := write(t, d, "a", "b", "c", "d", "e", "f", "g", "h")
	for _, k := range []kv.Key{"a", "b", "c", "d", "e", "f", "g", "h"} {
		it, ok := d.Get(k)
		if !ok || it.Version != v {
			t.Fatalf("key %s at %v, want %v", k, it.Version, v)
		}
	}
}

// TestSerializabilityMoneyTransfer: concurrent transfers preserve the
// total. Each transfer lists its keys, reads and writes alike, in random
// order — the crossed orders that once needed a deadlock detector — so
// it must neither deadlock (the wall time is bounded) nor lose money.
func TestSerializabilityMoneyTransfer(t *testing.T) {
	d := open(t, Config{DepBound: 5})
	const accounts = 8
	for i := 0; i < accounts; i++ {
		d.Seed(kv.Key(fmt.Sprintf("acct%d", i)), kv.Value{100}, kv.Version{Counter: 1})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		rng := rand.New(rand.NewSource(int64(g)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				from := kv.Key(fmt.Sprintf("acct%d", (g+i)%accounts))
				to := kv.Key(fmt.Sprintf("acct%d", (g+i+1)%accounts))
				for {
					err := transfer(d, rng, from, to)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrConflict) {
						t.Errorf("transfer: %v", err)
						return
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("transfers still running after a minute: deadlock")
	}
	total := 0
	for i := 0; i < accounts; i++ {
		it, ok := d.Get(kv.Key(fmt.Sprintf("acct%d", i)))
		if !ok {
			t.Fatalf("account %d missing", i)
		}
		total += int(it.Value[0])
	}
	if total != accounts*100 {
		t.Fatalf("total = %d, want %d (serializability violated)", total, accounts*100)
	}
}

// transfer moves one unit from one account to another, listing both its
// reads and its writes in an order drawn from rng.
func transfer(d *DB, rng *rand.Rand, from, to kv.Key) error {
	a, _ := d.Get(from)
	b, _ := d.Get(to)
	if a.Value[0] == 0 {
		return nil
	}
	reads := []kv.ObservedRead{{Key: from, Version: a.Version, Found: true}, {Key: to, Version: b.Version, Found: true}}
	writes := []kv.KeyValue{{Key: from, Value: kv.Value{a.Value[0] - 1}}, {Key: to, Value: kv.Value{b.Value[0] + 1}}}
	if rng.Intn(2) == 0 {
		reads[0], reads[1] = reads[1], reads[0]
	}
	if rng.Intn(2) == 0 {
		writes[0], writes[1] = writes[1], writes[0]
	}
	_, err := d.CommitUpdate(bg, reads, writes)
	return err
}

// TestConflictAutoRollsBack: a transaction that loses validation is
// rolled back by CommitUpdate itself — nothing applied, every lock
// released — so the next transaction on the same keys proceeds at once.
func TestConflictAutoRollsBack(t *testing.T) {
	d := open(t, Config{DepBound: 5})
	write(t, d, "x", "y")
	stale := observe(d, "y", "x")
	write(t, d, "x")
	_, err := d.CommitUpdate(bg, stale, []kv.KeyValue{{Key: "x", Value: kv.Value("1")}, {Key: "y", Value: kv.Value("1")}})
	var ce *ConflictError
	if !errors.As(err, &ce) || ce.Key != "x" {
		t.Fatalf("stale commit = %v, want a ConflictError on x", err)
	}
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	if _, err := d.CommitUpdate(ctx, observe(d, "x", "y"), []kv.KeyValue{{Key: "y", Value: kv.Value("2")}, {Key: "x", Value: kv.Value("2")}}); err != nil {
		t.Fatalf("commit after the conflict = %v: the loser kept its locks", err)
	}
	for _, k := range []kv.Key{"x", "y"} {
		if it, _ := d.Get(k); string(it.Value) != "2" {
			t.Fatalf("%s = %q, want 2", k, it.Value)
		}
	}
}

func TestClosedDBRejectsOps(t *testing.T) {
	d := Open(Config{DepBound: 5})
	d.Close()
	if _, err := d.CommitUpdate(bg, observe(d, "a"), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("read-only commit on closed = %v", err)
	}
	if _, err := d.CommitUpdate(bg, nil, []kv.KeyValue{{Key: "a"}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("write on closed = %v", err)
	}
	d.Close() // idempotent
}

func TestMetricsCounts(t *testing.T) {
	d := open(t, Config{DepBound: 5})
	write(t, d, "a", "b")
	// A conflict counts the reads up to the stale one, and no writes.
	stale := append(observe(d, "b"), kv.ObservedRead{Key: "a"}, kv.ObservedRead{Key: "z"})
	if _, err := d.CommitUpdate(bg, stale, []kv.KeyValue{{Key: "a"}}); !errors.Is(err, ErrConflict) {
		t.Fatal(err)
	}
	d.Get("a") // the uncounted peek
	if _, _, err := d.ReadItem(bg, "a"); err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.TxnsStarted != 2 || m.TxnsCommitted != 1 || m.TxnsAborted != 1 {
		t.Fatalf("txn counters = %+v", m)
	}
	if m.TxnReads != 4 || m.TxnWrites != 2 || m.Conflicts != 1 {
		t.Fatalf("op counters = %+v", m)
	}
	if m.SingleGets != 1 {
		t.Fatalf("SingleGets = %d, want 1", m.SingleGets)
	}
}

func TestRepeatReadRecordsOnce(t *testing.T) {
	d := open(t, Config{DepBound: 5})
	write(t, d, "a")
	var rec CommitRecord
	d.OnCommit(func(r CommitRecord) { rec = r })
	mustCommit(t, d, []kv.Key{"a", "a", "a"}, kv.KeyValue{Key: "b", Value: kv.Value("x")})
	if len(rec.Reads) != 1 {
		t.Fatalf("repeat reads recorded %d times: %+v", len(rec.Reads), rec.Reads)
	}
}

func TestSeedRaisesVersionCounter(t *testing.T) {
	d := open(t, Config{DepBound: 5})
	d.Seed("a", kv.Value("x"), kv.Version{Counter: 500})
	v := write(t, d, "b") // does not access a
	if v.Counter <= 500 {
		// Not strictly required by the protocol (b's history is
		// independent), but Seed promises monotone counters for
		// deterministic tests.
		t.Fatalf("commit version %v below seeded counter", v)
	}
}

// TestReplicaRegistryFollowsNewestStream: a standby that reconnects
// registers under its old name on a newer stream while the old stream
// may still be tearing down. The old stream's late ack and its teardown
// must leave the newer stream's entry alone.
func TestReplicaRegistryFollowsNewestStream(t *testing.T) {
	d := open(t, Config{})
	old, cur := d.ReplStream(), d.ReplStream()
	if cur <= old {
		t.Fatalf("stream ids %d then %d, want increasing", old, cur)
	}
	want := replAck{stream: cur, pos: wal.Pos{Seq: 2, Off: 50}, counter: 5}
	d.NoteReplicaAck("s", cur, want.pos, want.counter)
	d.NoteReplicaAck("s", old, wal.Pos{Seq: 1, Off: 10}, 1) // late, from the old stream
	d.DropReplica("s", old)
	if got := d.repl.acked["s"]; got != want {
		t.Fatalf("entry after the old stream's ack and teardown = %+v, want %+v", got, want)
	}
	d.DropReplica("s", cur)
	if n := d.ReplStatusNow().Replicas; n != 0 {
		t.Fatalf("%d replicas after the current stream dropped, want 0", n)
	}
}
