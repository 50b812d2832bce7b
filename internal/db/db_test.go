package db

import (
	"context"
	"errors"
	"fmt"
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

func mustCommit(t *testing.T, txn *Txn) kv.Version {
	t.Helper()
	v, err := txn.Commit()
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return v
}

func write(t *testing.T, d *DB, keys ...kv.Key) kv.Version {
	t.Helper()
	txn := d.Begin()
	for _, k := range keys {
		if _, _, err := txn.Read(k); err != nil {
			t.Fatalf("Read(%s): %v", k, err)
		}
		if err := txn.Write(k, kv.Value("v")); err != nil {
			t.Fatalf("Write(%s): %v", k, err)
		}
	}
	return mustCommit(t, txn)
}

func TestCommitMakesWritesVisible(t *testing.T) {
	d := open(t, Config{DepBound: 5})
	txn := d.Begin()
	if err := txn.Write("a", kv.Value("hello")); err != nil {
		t.Fatal(err)
	}
	v := mustCommit(t, txn)
	it, ok := d.Get("a")
	if !ok || string(it.Value) != "hello" || it.Version != v {
		t.Fatalf("Get = %+v, %v; want hello@%v", it, ok, v)
	}
}

func TestCommitVersionExceedsAccessed(t *testing.T) {
	d := open(t, Config{DepBound: 5, NodeID: 3})
	d.Seed("a", kv.Value("x"), kv.Version{Counter: 100, Node: 9})
	txn := d.Begin()
	if _, _, err := txn.Read("a"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Write("b", kv.Value("y")); err != nil {
		t.Fatal(err)
	}
	v := mustCommit(t, txn)
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

	txn := d.Begin()
	for _, k := range []kv.Key{"o1", "o2"} {
		if _, _, err := txn.Read(k); err != nil {
			t.Fatal(err)
		}
		if err := txn.Write(k, kv.Value("new")); err != nil {
			t.Fatal(err)
		}
	}
	vt := mustCommit(t, txn)

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

func TestReadYourWrites(t *testing.T) {
	d := open(t, Config{DepBound: 5})
	txn := d.Begin()
	if err := txn.Write("a", kv.Value("mine")); err != nil {
		t.Fatal(err)
	}
	it, ok, err := txn.Read("a")
	if err != nil || !ok || string(it.Value) != "mine" {
		t.Fatalf("read-your-writes = %q, %v, %v", it.Value, ok, err)
	}
	mustCommit(t, txn)
}

func TestReadMissingKey(t *testing.T) {
	d := open(t, Config{DepBound: 5})
	txn := d.Begin()
	it, ok, err := txn.Read("ghost")
	if err != nil {
		t.Fatal(err)
	}
	if ok || !it.Version.IsZero() {
		t.Fatalf("missing read = %+v, %v", it, ok)
	}
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestReadOnlyUpdateTxnCommits(t *testing.T) {
	d := open(t, Config{DepBound: 5})
	write(t, d, "a")
	txn := d.Begin()
	if _, _, err := txn.Read("a"); err != nil {
		t.Fatal(err)
	}
	v, err := txn.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsZero() {
		t.Fatalf("read-only commit minted version %v", v)
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	d := open(t, Config{DepBound: 5})
	write(t, d, "a")
	before, _ := d.Get("a")
	txn := d.Begin()
	if err := txn.Write("a", kv.Value("changed")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
	after, _ := d.Get("a")
	if after.Version != before.Version || string(after.Value) != string(before.Value) {
		t.Fatal("abort leaked writes")
	}
	// Locks must be released: another txn can write immediately.
	write(t, d, "a")
}

func TestFinishedTxnRejectsOps(t *testing.T) {
	d := open(t, Config{DepBound: 5})
	txn := d.Begin()
	mustCommit(t, txn)
	if _, _, err := txn.Read("a"); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Read after commit = %v, want ErrTxnDone", err)
	}
	if err := txn.Write("a", nil); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Write after commit = %v, want ErrTxnDone", err)
	}
	if _, err := txn.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("second Commit = %v, want ErrTxnDone", err)
	}
	if err := txn.Abort(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Abort after commit = %v, want ErrTxnDone", err)
	}
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

func TestCancelledTxnUnblocksLockWait(t *testing.T) {
	d := open(t, Config{})
	write(t, d, "k")

	holder := d.Begin()
	if err := holder.Write("k", kv.Value("held")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	waiter := d.BeginCtx(ctx)
	errc := make(chan error, 1)
	go func() {
		_, _, err := waiter.Read("k")
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter queue up
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled lock wait = %v, want context.Canceled", err)
	}

	// The cancelled waiter withdrew from the queue and released its locks:
	// a third transaction gets the lock as soon as the holder commits.
	if _, err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	next := d.Begin()
	if err := next.Write("k", kv.Value("next")); err != nil {
		t.Fatalf("post-cancel writer blocked: %v", err)
	}
	if _, err := next.Commit(); err != nil {
		t.Fatal(err)
	}

	// Every operation on the cancelled transaction now fails ErrTxnDone.
	if _, _, err := waiter.Read("k"); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Read on cancelled txn = %v, want ErrTxnDone", err)
	}
}

func TestBeginCtxPreCancelled(t *testing.T) {
	d := open(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	txn := d.BeginCtx(ctx)
	if err := txn.Write("k", kv.Value("v")); !errors.Is(err, context.Canceled) {
		t.Fatalf("Write = %v, want context.Canceled", err)
	}
	if _, err := txn.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Commit after cancelled rollback = %v, want ErrTxnDone", err)
	}
}

func TestCommitRecordContents(t *testing.T) {
	d := open(t, Config{DepBound: 5})
	seedV := write(t, d, "r")
	var rec CommitRecord
	d.OnCommit(func(r CommitRecord) { rec = r })

	txn := d.Begin()
	if _, _, err := txn.Read("r"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Write("w", kv.Value("x")); err != nil {
		t.Fatal(err)
	}
	v := mustCommit(t, txn)

	if rec.Version != v || rec.TxnID != txn.ID() {
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
				txn := d.Begin()
				if err := txn.Write(kv.Key(fmt.Sprintf("g%d-%d", g, i)), kv.Value("v")); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if _, err := txn.Commit(); err != nil {
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

func TestSerializabilityMoneyTransfer(t *testing.T) {
	// Classic invariant: concurrent transfers preserve the total.
	d := open(t, Config{DepBound: 5})
	const accounts = 8
	for i := 0; i < accounts; i++ {
		d.Seed(kv.Key(fmt.Sprintf("acct%d", i)), kv.Value{100}, kv.Version{Counter: 1})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				from := kv.Key(fmt.Sprintf("acct%d", (g+i)%accounts))
				to := kv.Key(fmt.Sprintf("acct%d", (g+i+1)%accounts))
				for {
					err := transfer(d, from, to)
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
	wg.Wait()
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

func transfer(d *DB, from, to kv.Key) error {
	txn := d.Begin()
	a, _, err := txn.Read(from)
	if err != nil {
		return err
	}
	b, _, err := txn.Read(to)
	if err != nil {
		return err
	}
	if a.Value[0] == 0 {
		return txn.Abort()
	}
	if err := txn.Write(from, kv.Value{a.Value[0] - 1}); err != nil {
		return err
	}
	if err := txn.Write(to, kv.Value{b.Value[0] + 1}); err != nil {
		return err
	}
	_, err = txn.Commit()
	return err
}

func TestConflictAutoRollsBack(t *testing.T) {
	d := open(t, Config{DepBound: 5})
	t1 := d.Begin()
	t2 := d.Begin()
	if err := t1.Write("x", kv.Value("1")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Write("y", kv.Value("2")); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- t1.Write("y", kv.Value("1")) }()
	// t2 closing the cycle must get ErrConflict and be rolled back.
	var deadlockErr error
	for {
		deadlockErr = t2.Write("x", kv.Value("2"))
		break
	}
	if errors.Is(deadlockErr, ErrConflict) {
		if _, err := t2.Commit(); !errors.Is(err, ErrTxnDone) {
			t.Fatalf("conflicted txn not rolled back: %v", err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("survivor errored: %v", err)
		}
		mustCommit(t, t1)
		return
	}
	// Scheduling may let t1's goroutine block first and t1 be the victim.
	if err := <-errc; !errors.Is(err, ErrConflict) {
		t.Fatalf("no deadlock detected anywhere: t2=%v t1=%v", deadlockErr, err)
	}
	mustCommit(t, t2)
}

func TestClosedDBRejectsOps(t *testing.T) {
	d := Open(Config{DepBound: 5})
	txn := d.Begin()
	d.Close()
	if _, _, err := txn.Read("a"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read on closed = %v", err)
	}
	txn2 := d.Begin()
	if err := txn2.Write("a", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write on closed = %v", err)
	}
	if _, err := d.Begin().Commit(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Commit on closed = %v", err)
	}
	d.Close() // idempotent
}

func TestMetricsCounts(t *testing.T) {
	d := open(t, Config{DepBound: 5})
	write(t, d, "a", "b")
	txn := d.Begin()
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
	d.Get("a")
	m := d.Metrics()
	if m.TxnsStarted != 2 || m.TxnsCommitted != 1 || m.TxnsAborted != 1 {
		t.Fatalf("txn counters = %+v", m)
	}
	if m.TxnReads != 2 || m.TxnWrites != 2 {
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
	txn := d.Begin()
	for i := 0; i < 3; i++ {
		if _, _, err := txn.Read("a"); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Write("b", kv.Value("x")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, txn)
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
