package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcache/internal/chaos"
	"tcache/internal/db"
	"tcache/internal/kv"
	"tcache/internal/wal"
)

// replRig is a primary with a WAL, served over TCP, plus helpers to
// commit numbered writes and compare state against a standby.
type replRig struct {
	t       *testing.T
	primary *db.DB
	srv     *DBServer
	addr    string
	written int // keys key-0 .. key-(written-1) committed so far
	// promoteAfter is the StandbyConfig.PromoteAfter of standbys started
	// from now on.
	promoteAfter time.Duration
}

func newReplRig(t *testing.T) *replRig { return newReplRigWith(t, db.Config{}) }

// newReplRigWith opens the primary with cfg (its WAL never fsyncs).
func newReplRigWith(t *testing.T, cfg db.Config) *replRig {
	t.Helper()
	cfg.WALSync = false
	d, err := db.Recover(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	srv := NewDBServer(d, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return &replRig{t: t, primary: d, srv: srv, addr: addr}
}

// commit writes n fresh keys on the primary, one transaction each.
func (r *replRig) commit(n int) { r.commitMany(n, 1, 0) }

// commitMany writes n fresh keys on the primary, per keys to a
// transaction, each value padded to at least size bytes.
func (r *replRig) commitMany(n, per, size int) {
	r.t.Helper()
	for n > 0 {
		writes := make([]kv.KeyValue, min(n, per))
		for i := range writes {
			v := fmt.Appendf(nil, "val-%d", r.written)
			writes[i] = kv.KeyValue{Key: kv.Key(fmt.Sprintf("key-%d", r.written)), Value: append(v, make([]byte, max(0, size-len(v)))...)}
			r.written++
		}
		if _, err := r.primary.ValidatedUpdate(context.Background(), nil, writes); err != nil {
			r.t.Fatal(err)
		}
		n -= len(writes)
	}
}

// startStandby opens a WAL-backed standby replicating from primaryAddr
// (usually the rig address, or a chaos proxy in front of it) and serves
// it over TCP too.
func (r *replRig) startStandby(primaryAddr string) (*db.DB, string, context.CancelFunc) {
	sd, saddr, cancel, _ := r.standbyIn(r.t.TempDir(), primaryAddr)
	return sd, saddr, cancel
}

// standbyIn is startStandby on the log in dir. cancel ends only the
// replication loop; stop also closes the server and the database, so
// dir can be recovered again.
func (r *replRig) standbyIn(dir, primaryAddr string) (*db.DB, string, context.CancelFunc, func()) {
	r.t.Helper()
	sd, err := db.Recover(db.Config{WALSync: false, NodeID: 1}, dir)
	if err != nil {
		r.t.Fatal(err)
	}
	sd.SetStandby(r.addr)
	srv := NewDBServer(sd, nil)
	saddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		sd.Close()
		r.t.Fatal(err)
	}
	cfg := StandbyConfig{Primary: primaryAddr, Name: saddr, PromoteAfter: r.promoteAfter, Logf: r.t.Logf}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunStandby(ctx, sd, cfg)
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			<-done
			srv.Close()
			sd.Close()
		})
	}
	r.t.Cleanup(stop)
	return sd, saddr, cancel, stop
}

// waitConverged blocks until the standby holds the primary's exact
// committed state: equal version counters and every written key equal in
// value, version, and dependency list.
func (r *replRig) waitConverged(sd *db.DB, within time.Duration) {
	r.t.Helper()
	deadline := time.Now().Add(within)
	for {
		if r.converged(sd) {
			return
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("standby did not converge within %s: primary counter=%d len=%d, standby counter=%d len=%d",
				within, r.primary.VersionCounter(), r.primary.Len(), sd.VersionCounter(), sd.Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (r *replRig) converged(sd *db.DB) bool {
	if sd.VersionCounter() != r.primary.VersionCounter() || sd.Len() != r.primary.Len() {
		return false
	}
	for i := 0; i < r.written; i++ {
		k := kv.Key(fmt.Sprintf("key-%d", i))
		want, ok1 := r.primary.Get(k)
		got, ok2 := sd.Get(k)
		if !ok1 || !ok2 || want.Version != got.Version ||
			string(want.Value) != string(got.Value) || want.Deps.String() != got.Deps.String() {
			return false
		}
	}
	return true
}

// TestReplicationEndToEnd drives the happy path: full state transfer of
// pre-existing commits, live tailing of new ones, standby write
// rejection with a leader redirect, and explicit promotion over the
// wire.
func TestReplicationEndToEnd(t *testing.T) {
	bg := context.Background()
	rig := newReplRig(t)
	rig.commit(40) // before the standby exists: arrives via state transfer

	sd, saddr, _ := rig.startStandby(rig.addr)
	rig.waitConverged(sd, 5*time.Second)

	rig.commit(60) // after: arrives via the live record stream
	rig.waitConverged(sd, 5*time.Second)

	// The standby serves reads but must reject writes, naming the leader.
	cli, err := DialDB(bg, saddr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if item, ok, err := cli.ReadItem(bg, kv.Key("key-0")); err != nil || !ok || string(item.Value) != "val-0" {
		t.Fatalf("standby read: item=%v ok=%v err=%v", item, ok, err)
	}
	_, err = cli.ValidatedUpdate(bg, nil, []kv.KeyValue{{Key: "w", Value: kv.Value("x")}})
	if !errors.Is(err, db.ErrNotPrimary) {
		t.Fatalf("standby write: want ErrNotPrimary, got %v", err)
	}
	var npe *db.NotPrimaryError
	if !errors.As(err, &npe) || npe.Leader != rig.addr {
		t.Fatalf("standby write: want leader %q in rejection, got %+v", rig.addr, npe)
	}
	st, err := cli.Status(bg)
	if err != nil || st.Role != "standby" || st.Leader != rig.addr {
		t.Fatalf("standby status = %+v, err=%v", st, err)
	}

	// The primary reports replication lag; with a converged standby the
	// lag must be zero.
	pcli, err := DialDB(bg, rig.addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pcli.Close()
	pst, err := pcli.Status(bg)
	if err != nil || pst.Role != "primary" {
		t.Fatalf("primary status = %+v, err=%v", pst, err)
	}
	if pst.Lag != 0 {
		t.Fatalf("primary lag = %d with converged standby, want 0", pst.Lag)
	}

	// Promote over the wire: the standby becomes a primary whose next
	// commits are strictly above everything it replicated.
	replicated := sd.VersionCounter()
	counter, err := cli.Promote(bg)
	if err != nil {
		t.Fatal(err)
	}
	if counter < replicated {
		t.Fatalf("promotion counter %d below replicated %d", counter, replicated)
	}
	v, err := cli.ValidatedUpdate(bg, nil, []kv.KeyValue{{Key: "post", Value: kv.Value("promo")}})
	if err != nil {
		t.Fatal(err)
	}
	if v.Counter <= replicated {
		t.Fatalf("post-promotion version %s not above replicated counter %d", v, replicated)
	}
	// Promotion is idempotent: repeating it reports the same role.
	if _, err := cli.Promote(bg); err != nil {
		t.Fatalf("re-promote: %v", err)
	}
}

// TestReplicationStandbyRestartResyncs kills the standby loop mid-stream
// and starts a fresh one with no cursor: the full state transfer overlaps
// everything already applied, and the idempotent apply path must converge
// to the exact primary state anyway.
func TestReplicationStandbyRestartResyncs(t *testing.T) {
	rig := newReplRig(t)
	rig.commit(30)
	sd, _, cancel := rig.startStandby(rig.addr)
	rig.waitConverged(sd, 5*time.Second)

	cancel() // standby loop gone; primary keeps committing
	rig.commit(30)

	ctx, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunStandby(ctx, sd, StandbyConfig{Primary: rig.addr, Name: "s1-restarted"})
	}()
	defer func() { cancel2(); <-done }()
	rig.waitConverged(sd, 5*time.Second)
}

// TestReplicationUnderChaos runs the replication link through a chaos
// proxy that drops 20% of server-to-client chunks, delays and reorders
// the rest, and occasionally kills the connection — while the primary
// commits continuously. Safety: the standby's counter never overtakes
// the primary's. Liveness: once the chaos stops, the standby converges
// to the exact committed state.
func TestReplicationUnderChaos(t *testing.T) {
	rig := newReplRig(t)
	rig.commit(50)

	link := chaos.NewLink(chaos.ConnConfig{
		DropRate:  0.20,
		KillRate:  0.02,
		BaseDelay: 200 * time.Microsecond,
		Jitter:    2 * time.Millisecond, // overlapping windows reorder chunks
		Seed:      42,
	})
	paddr, stopProxy, err := link.Proxy(rig.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stopProxy()

	sd, _, _ := rig.startStandby(paddr)

	// Commit through the chaos window, checking the safety invariant as
	// we go: a standby can lag, but never run ahead of the primary.
	for round := 0; round < 40; round++ {
		rig.commit(5)
		if sc, pc := sd.VersionCounter(), rig.primary.VersionCounter(); sc > pc {
			t.Fatalf("standby counter %d overtook primary %d", sc, pc)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Mid-run partition: all replication conns die, the loop must keep
	// redialing without wedging, and progress resumes after Heal.
	link.Partition()
	rig.commit(20)
	time.Sleep(50 * time.Millisecond)
	link.Heal()

	// Heal the byte-level faults too and require exact convergence.
	link.SetConfig(chaos.ConnConfig{})
	rig.waitConverged(sd, 20*time.Second)
}

// frameDropProxy forwards each accepted connection to a target and
// passes the server-to-client direction through frame by frame, so a
// test can lose exactly the frames it names. drop sees every frame's
// kind in stream order, across connections, and swallows the ones it
// returns true for; the client-to-server direction is copied clean.
type frameDropProxy struct {
	addr string

	mu      sync.Mutex
	drop    func(kind string) bool
	conns   int           // connections accepted (stream opens)
	images  int           // images begun, delivered or not
	dropped chan struct{} // closed at the first swallowed frame
}

// replFrameKind names a server-to-client frame of the replication
// stream: "image-start" for the image's first frame and "image" for the
// rest of it, "records" for the live log, "other" for the rest (the
// mode response).
func replFrameKind(typ byte, payload []byte) string {
	switch typ {
	case frameReplRecords:
		return "records"
	case frameReplImage:
		if off, _, _ := decodeReplImage(payload); off == 0 {
			return "image-start"
		}
		return "image"
	}
	return "other"
}

// dropFirst swallows the first frame of one kind and nothing else.
func dropFirst(kind string) func(string) bool {
	done := false
	return func(k string) bool {
		if k != kind || done {
			return false
		}
		done = true
		return true
	}
}

func newFrameDropProxy(t *testing.T, target string, drop func(kind string) bool) *frameDropProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &frameDropProxy{addr: ln.Addr().String(), drop: drop, dropped: make(chan struct{})}
	var (
		wg    sync.WaitGroup
		cmu   sync.Mutex
		opens []net.Conn
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				down.Close()
				continue
			}
			cmu.Lock()
			opens = append(opens, down, up)
			cmu.Unlock()
			p.mu.Lock()
			p.conns++
			p.mu.Unlock()
			wg.Add(2)
			go func() {
				defer wg.Done()
				io.Copy(up, down) //nolint:errcheck // either side closing ends the pair
				up.Close()
				down.Close()
			}()
			go func() {
				defer wg.Done()
				p.forward(down, up)
				up.Close()
				down.Close()
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		cmu.Lock()
		for _, c := range opens {
			c.Close()
		}
		cmu.Unlock()
		wg.Wait()
	})
	return p
}

// forward copies the server's handshake, then one whole frame at a time.
func (p *frameDropProxy) forward(down, up net.Conn) {
	hs := make([]byte, handshakeSize)
	if _, err := io.ReadFull(up, hs); err != nil {
		return
	}
	if _, err := down.Write(hs); err != nil {
		return
	}
	for {
		hdr := make([]byte, frameHeaderSize)
		if _, err := io.ReadFull(up, hdr); err != nil {
			return
		}
		frame := append(hdr, make([]byte, binary.BigEndian.Uint32(hdr[12:16]))...)
		if _, err := io.ReadFull(up, frame[frameHeaderSize:]); err != nil {
			return
		}
		kind := replFrameKind(hdr[2], frame[frameHeaderSize:])
		p.mu.Lock()
		swallow := p.drop(kind)
		if swallow {
			select {
			case <-p.dropped:
			default:
				close(p.dropped)
			}
		}
		if kind == "image-start" {
			p.images++
		}
		p.mu.Unlock()
		if swallow {
			continue
		}
		if _, err := down.Write(frame); err != nil {
			return
		}
	}
}

func (p *frameDropProxy) counts() (conns, images int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conns, p.images
}

// TestReplicationHealsScriptedLoss loses one chosen frame of the
// replication stream and requires the standby to converge to the exact
// primary state and acknowledge a live stream after one reconnect —
// resuming from its cursor when the lost frame held records, and taking
// the image again only when the first was cut short. Each case names the
// frame it loses, so a failure reproduces every time.
func TestReplicationHealsScriptedLoss(t *testing.T) {
	for _, tc := range []struct {
		name string
		lose string
		// valueSize pads the ten committed values; 0 keeps them small,
		// so the image is one frame.
		valueSize int
		// after runs once the frame is gone; the standby must notice.
		after      func(rig *replRig)
		imageIdle  time.Duration // replImageIdle for the case; 0 keeps the default
		wantImages int           // images the primary sent, the cut-short one included
	}{
		// The next frame starts past the cursor: reconnect and resume
		// there, no second image.
		{"first record after the image", "records", 0, func(rig *replRig) { rig.commit(1) }, 0, 1},
		// A record frame arrives before the image's last byte, well
		// inside the default image read bound.
		{"the image's only frame, then a commit", "image-start", 0, func(rig *replRig) { rig.commit(1) }, 0, 2},
		// Nothing arrives at all: the image read times out.
		{"the image's only frame, idle primary", "image-start", 0, func(*replRig) {}, 300 * time.Millisecond, 2},
		// 2.5 MiB of values make a three-frame image; the second frame's
		// offset exposes the loss.
		{"the first frame of a multi-frame image", "image-start", 256 << 10, func(*replRig) {}, 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.imageIdle > 0 {
				defer func(d time.Duration) { replImageIdle = d }(replImageIdle)
				replImageIdle = tc.imageIdle
			}
			rig := newReplRig(t)
			rig.commitMany(10, 1, tc.valueSize)
			proxy := newFrameDropProxy(t, rig.addr, dropFirst(tc.lose))
			sd, _, _ := rig.startStandby(proxy.addr)
			if tc.lose == "records" {
				rig.waitConverged(sd, 5*time.Second) // the image first
				rig.commit(1)                        // its frame is lost
			}
			select {
			case <-proxy.dropped:
			case <-time.After(5 * time.Second):
				t.Fatalf("no %s frame was ever sent", tc.lose)
			}
			tc.after(rig)
			rig.waitConverged(sd, 5*time.Second)
			// Equal state is not enough — a standby stuck waiting for the
			// rest of an image may hold the state already. It must be
			// following the live log, which it acknowledges.
			for deadline := time.Now().Add(5 * time.Second); rig.primary.ReplStatusNow().Replicas != 1; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("the standby never acknowledged a live stream: %+v", rig.primary.ReplStatusNow())
				}
			}
			if conns, images := proxy.counts(); conns != 2 || images != tc.wantImages {
				t.Fatalf("healed with %d stream opens and %d images, want 2 and %d", conns, images, tc.wantImages)
			}
		})
	}
}

// TestReplJoinsShareOneSnapshot joins two standbys at once to a primary
// that has never taken a snapshot: they must share the one the first
// join takes. A third join must reuse it too — a snapshot per join would
// truncate the segments the live standbys tail and make them re-join.
func TestReplJoinsShareOneSnapshot(t *testing.T) {
	rig := newReplRig(t)
	rig.commit(10)
	never := func(string) bool { return false }
	p1, p2 := newFrameDropProxy(t, rig.addr, never), newFrameDropProxy(t, rig.addr, never)
	sd1, _, _ := rig.startStandby(p1.addr)
	sd2, _, _ := rig.startStandby(p2.addr)
	rig.waitConverged(sd1, 5*time.Second)
	rig.waitConverged(sd2, 5*time.Second)
	if n := rig.primary.Metrics().Snapshots; n != 1 {
		t.Fatalf("two joins took %d snapshots, want 1", n)
	}

	sd3, _, _ := rig.startStandby(rig.addr)
	rig.waitConverged(sd3, 5*time.Second)
	rig.commit(5)
	for _, sd := range []*db.DB{sd1, sd2, sd3} {
		rig.waitConverged(sd, 5*time.Second)
	}
	if n := rig.primary.Metrics().Snapshots; n != 1 {
		t.Fatalf("the third join took a snapshot: %d in all, want 1", n)
	}
	for i, p := range []*frameDropProxy{p1, p2} {
		if conns, _ := p.counts(); conns != 1 {
			t.Fatalf("standby %d opened its stream %d times, want 1", i+1, conns)
		}
	}
}

// TestStandbyAutoPromotes closes the primary under two standbys: the one
// with PromoteAfter must promote once the primary has been unreachable
// that long, and not before; the one without must never promote.
func TestStandbyAutoPromotes(t *testing.T) {
	const after = 400 * time.Millisecond
	rig := newReplRig(t)
	rig.commit(5)
	rig.promoteAfter = after
	auto, _, _ := rig.startStandby(rig.addr)
	rig.promoteAfter = 0
	manual, _, _ := rig.startStandby(rig.addr)
	rig.waitConverged(auto, 5*time.Second)
	rig.waitConverged(manual, 5*time.Second)

	// An idle primary sends no frames: unreachability counts from the
	// close, not from the last frame.
	time.Sleep(after)
	closed := time.Now()
	rig.srv.Close()
	time.Sleep(after / 2)
	if auto.Role() != db.RoleStandby {
		t.Fatalf("promoted %s after the primary closed, before PromoteAfter %s", time.Since(closed), after)
	}
	for auto.Role() == db.RoleStandby {
		if time.Since(closed) > after+5*time.Second {
			t.Fatalf("not promoted %s after the primary closed (PromoteAfter %s)", time.Since(closed), after)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if took := time.Since(closed); took < after {
		t.Fatalf("promoted %s after the primary closed, before PromoteAfter %s", took, after)
	}
	// Several of the manual standby's redials have failed by now.
	time.Sleep(2 * after)
	if manual.Role() != db.RoleStandby {
		t.Fatal("the standby with PromoteAfter 0 promoted itself")
	}
}

// TestReplRestartedStandbyGetsAFreshImage restarts a standby whose
// state is newer than the primary's only snapshot: its join must take a
// fresh one, which the last-wins apply cannot roll the standby back
// with, and converge.
func TestReplRestartedStandbyGetsAFreshImage(t *testing.T) {
	rig := newReplRig(t)
	rig.commit(10)
	dir := t.TempDir()
	sd, _, _, stop := rig.standbyIn(dir, rig.addr)
	rig.waitConverged(sd, 5*time.Second)
	rig.commit(10)
	rig.waitConverged(sd, 5*time.Second)
	stop()
	sd, _, _, _ = rig.standbyIn(dir, rig.addr)
	for deadline := time.Now().Add(5 * time.Second); sd.ReplStatusNow().Applied < 20; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the restarted standby never applied an image")
		}
	}
	rig.waitConverged(sd, 5*time.Second)
	if n := rig.primary.Metrics().Snapshots; n != 2 {
		t.Fatalf("the primary took %d snapshots, want 2: one at the first join, one at the restarted standby's", n)
	}
}

// TestReplStandbyWithLostWritesFollowsPromotedPeer fails a primary over
// to standby B, which missed the primary's last writes, and restarts
// standby A, which got them (as an old primary restarted as a standby
// would), on B. B then rewrites those keys at versions below the lost
// ones and commits past A's counter: A must take B's image and records
// over the writes the cluster lost and converge to B's exact state.
func TestReplStandbyWithLostWritesFollowsPromotedPeer(t *testing.T) {
	rig := newReplRig(t)
	rig.commit(10)
	b, baddr, cancelB := rig.startStandby(rig.addr)
	aDir := t.TempDir()
	a, _, _, stopA := rig.standbyIn(aDir, rig.addr)
	rig.waitConverged(b, 5*time.Second)
	rig.waitConverged(a, 5*time.Second)
	rewrite := func(d *db.DB, tag string) {
		for i := 0; i < 10; i++ {
			writes := []kv.KeyValue{{Key: kv.Key(fmt.Sprintf("key-%d", i)), Value: fmt.Appendf(nil, "%s-%d", tag, i)}}
			if _, err := d.ValidatedUpdate(context.Background(), nil, writes); err != nil {
				t.Fatal(err)
			}
		}
	}
	cancelB() // B misses what follows
	rewrite(rig.primary, "lost")
	rewrite(rig.primary, "lost-again")
	rig.waitConverged(a, 5*time.Second)
	lost := a.VersionCounter()

	rig.srv.Close()
	if _, err := b.Promote(); err != nil {
		t.Fatal(err)
	}
	rig.primary, rig.addr = b, baddr
	stopA()
	a, _, _, _ = rig.standbyIn(aDir, baddr)
	// B's image first, so its rewrites reach A as records.
	for deadline := time.Now().Add(5 * time.Second); a.ReplStatusNow().Applied < 10; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("A never applied B's image")
		}
	}
	rewrite(b, "kept")
	if b.VersionCounter() >= lost {
		t.Fatalf("B rewrote at counter %d, not below the lost writes' %d", b.VersionCounter(), lost)
	}
	rig.commit(int(lost))
	rig.waitConverged(a, 10*time.Second)
}

// TestReplJoinAtCutPoints joins a fresh standby at eight points of the
// primary's log while a writer commits read-modify-write transactions
// (so stored dependency lists are not empty), with and without
// background snapshots truncating the log, and restarts one standby from
// its own log mid-run. Every standby must converge to the primary's
// exact state: each key equal in value, version and dependency list,
// and equal version counters. A last case times the join of a
// 20,000-object primary, first and repeated.
func TestReplJoinAtCutPoints(t *testing.T) {
	for _, seg := range []int64{0, 2 << 10} {
		t.Run(fmt.Sprintf("WALSegmentSize=%d", seg), func(t *testing.T) {
			rig := newReplRigWith(t, db.Config{WALSegmentSize: seg})
			rig.commit(20)
			keys := rig.written
			var commits atomic.Int64
			quit, wrote := make(chan struct{}), make(chan error, 1)
			go func() {
				ctx := context.Background()
				for n := 0; ; n++ {
					select {
					case <-quit:
						wrote <- nil
						return
					default:
					}
					rk := kv.Key(fmt.Sprintf("key-%d", n%keys))
					it, _ := rig.primary.Get(rk)
					reads := []kv.ObservedRead{{Key: rk, Version: it.Version, Found: true}}
					writes := []kv.KeyValue{{Key: kv.Key(fmt.Sprintf("key-%d", (n*7+3)%keys)), Value: fmt.Appendf(nil, "rmw-%d", n)}}
					if _, err := rig.primary.ValidatedUpdate(ctx, reads, writes); err != nil {
						wrote <- err
						return
					}
					commits.Add(1)
				}
			}()
			var standbys []*db.DB
			var restartDir string
			var stopRestarted func()
			for i := 0; i < 8; i++ {
				for target := commits.Load() + 15; commits.Load() < target; {
					time.Sleep(time.Millisecond)
				}
				var sd *db.DB
				if i == 2 {
					restartDir = t.TempDir()
					sd, _, _, stopRestarted = rig.standbyIn(restartDir, rig.addr)
				} else {
					sd, _, _ = rig.startStandby(rig.addr)
				}
				standbys = append(standbys, sd)
				// The next cut point comes after this join's image.
				for deadline := time.Now().Add(10 * time.Second); sd.VersionCounter() == 0; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("standby %d applied nothing", i)
					}
				}
			}
			// Restart the standby from its own log: its resume cursor is
			// gone, so it joins again on top of the state it recovered.
			stopRestarted()
			sd, _, _, _ := rig.standbyIn(restartDir, rig.addr)
			standbys[2] = sd
			for target := commits.Load() + 30; commits.Load() < target; {
				time.Sleep(time.Millisecond)
			}
			close(quit)
			if err := <-wrote; err != nil {
				t.Fatal(err)
			}
			for _, sd := range standbys {
				rig.waitConverged(sd, 20*time.Second)
			}
		})
	}
	t.Run("20000 objects", func(t *testing.T) {
		rig := newReplRig(t)
		rig.commitMany(20000, 500, 0)
		var took [2]time.Duration
		for i := range took {
			start := time.Now()
			sd, _, _ := rig.startStandby(rig.addr)
			rig.waitConverged(sd, 60*time.Second)
			took[i] = time.Since(start)
		}
		t.Logf("join of a 20000-object primary: first %s, repeat %s", took[0], took[1])
	})
}

// TestStandbyStorePinsNoFrame: what a standby stores from a replication
// frame owns its bytes. Records with dependency lists are encoded into a
// payload the test owns, decoded with decodeReplRecords and applied
// through ApplyReplicated; once the payload is dropped a GC must be able
// to free it, and the stored items must still equal the applied ones. A
// stored dependency key that aliased the payload would keep the whole
// frame alive for as long as the key is stored.
//
// The collection is observed with runtime.SetFinalizer rather than
// runtime.AddCleanup, which the oldest toolchains CI builds with lack.
func TestStandbyStorePinsNoFrame(t *testing.T) {
	d := db.Open(db.Config{})
	defer d.Close()
	d.SetStandby("primary:0")
	dep := func(k string, c uint64) kv.DepEntry {
		return kv.DepEntry{Key: kv.Key(k), Version: kv.Version{Counter: c, Node: 1}}
	}
	recs := []wal.Record{
		{Version: kv.Version{Counter: 3, Node: 1}, Writes: []wal.Entry{
			{Key: "a", Value: kv.Value("value-of-a"), Deps: kv.DepList{dep("b", 3), dep("far-away-key", 2)}},
			{Key: "b", Value: kv.Value("value-of-b"), Deps: kv.DepList{dep("a", 3)}},
		}},
		{Version: kv.Version{Counter: 4, Node: 1}, Writes: []wal.Entry{
			{Key: "c", Value: kv.Value{}, Deps: kv.DepList{dep("", 1), dep("a", 3)}},
			{Key: "d", Value: nil, Deps: nil},
		}},
	}
	freed := make(chan struct{})
	applyFrame(t, d, recs, freed)
	for deadline := time.After(5 * time.Second); ; {
		runtime.GC()
		select {
		case <-time.After(10 * time.Millisecond):
			continue
		case <-deadline:
			t.Fatal("the replication payload is still reachable after its records were applied: a stored item aliases it")
		case <-freed:
		}
		break
	}
	for _, rec := range recs {
		for _, w := range rec.Writes {
			want := kv.Item{Value: w.Value, Version: rec.Version, Deps: w.Deps}
			if got, ok := d.Get(w.Key); !ok || !reflect.DeepEqual(got, want) {
				t.Fatalf("stored %q = %#v (found %v), want %#v", w.Key, got, ok, want)
			}
		}
	}
}

// applyFrame encodes recs as a replication-records payload that closes
// freed once collected, then decodes and applies it to d; nothing it
// allocated is reachable from the caller afterwards except through d.
func applyFrame(t *testing.T, d *db.DB, recs []wal.Record, freed chan struct{}) {
	t.Helper()
	b := appendReplRecords(nil, wal.Pos{Seq: 1}, wal.Pos{Seq: 1, Off: 1}, recs)
	payload := make([]byte, len(b)) // its own allocation, as frameReader's
	copy(payload, b)
	runtime.SetFinalizer(&payload[0], func(*byte) { close(freed) })
	_, _, got, err := decodeReplRecords(payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyReplicated(got); err != nil {
		t.Fatal(err)
	}
}
