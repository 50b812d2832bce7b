package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"tcache/internal/chaos"
	"tcache/internal/db"
	"tcache/internal/kv"
)

// replRig is a primary with a WAL, served over TCP, plus helpers to
// commit numbered writes and compare state against a standby.
type replRig struct {
	t       *testing.T
	primary *db.DB
	addr    string
	written int // keys key-0 .. key-(written-1) committed so far
}

func newReplRig(t *testing.T) *replRig {
	t.Helper()
	d, err := db.Recover(db.Config{WALSync: false}, t.TempDir())
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
	return &replRig{t: t, primary: d, addr: addr}
}

// commit writes n fresh keys on the primary, one transaction each.
func (r *replRig) commit(n int) {
	r.t.Helper()
	for i := 0; i < n; i++ {
		k := kv.Key(fmt.Sprintf("key-%d", r.written))
		v := kv.Value(fmt.Sprintf("val-%d", r.written))
		if _, err := r.primary.ValidatedUpdate(context.Background(), nil, []kv.KeyValue{{Key: k, Value: v}}); err != nil {
			r.t.Fatal(err)
		}
		r.written++
	}
}

// startStandby opens a WAL-backed standby replicating from primaryAddr
// (usually the rig address, or a chaos proxy in front of it) and serves
// it over TCP too.
func (r *replRig) startStandby(primaryAddr string) (*db.DB, string, context.CancelFunc) {
	r.t.Helper()
	sd, err := db.Recover(db.Config{WALSync: false, NodeID: 1}, r.t.TempDir())
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(func() { sd.Close() })
	sd.SetStandby(r.addr)
	srv := NewDBServer(sd, nil)
	saddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(srv.Close)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunStandby(ctx, sd, StandbyConfig{Primary: primaryAddr, Name: saddr, Logf: r.t.Logf})
	}()
	r.t.Cleanup(func() {
		cancel()
		<-done
	})
	return sd, saddr, cancel
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
	images  int           // image terminators sent, delivered or not
	dropped chan struct{} // closed at the first swallowed frame
}

// replFrameKind names a server-to-client frame of the replication
// stream: "entries" and "terminator" for the state image, "records" for
// the live log, "other" for the rest (the mode response).
func replFrameKind(typ byte, payload []byte) string {
	switch typ {
	case frameReplRecords:
		return "records"
	case frameReplSnapshot:
		if _, _, _, _, done, _ := decodeReplSnapshot(payload); done {
			return "terminator"
		}
		return "entries"
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
		if kind == "terminator" {
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
// a second image only when the first was cut short. Each case names the
// frame it loses, so a failure reproduces every time.
func TestReplicationHealsScriptedLoss(t *testing.T) {
	for _, tc := range []struct {
		name string
		lose string
		// after runs once the frame is gone; the standby must notice.
		after      func(rig *replRig)
		imageIdle  time.Duration // replImageIdle for the case; 0 keeps the default
		wantImages int           // images the primary sent, the cut-short one included
	}{
		// The next frame starts past the cursor: reconnect and resume
		// there, no second image.
		{"first record after the image", "records", func(rig *replRig) { rig.commit(1) }, 0, 1},
		// The terminator's entry count exposes the loss.
		{"one image chunk", "entries", func(*replRig) {}, 0, 2},
		// A record frame arrives where the terminator should have, well
		// inside the default image read bound.
		{"terminator, then a commit", "terminator", func(rig *replRig) { rig.commit(1) }, 0, 2},
		// Nothing arrives at all: the image read times out.
		{"terminator, idle primary", "terminator", func(*replRig) {}, 300 * time.Millisecond, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.imageIdle > 0 {
				defer func(d time.Duration) { replImageIdle = d }(replImageIdle)
				replImageIdle = tc.imageIdle
			}
			rig := newReplRig(t)
			rig.commit(10)
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
			// Equal state is not enough — a standby stuck waiting for a lost
			// terminator holds the image's entries too. It must be following
			// the live log, which it acknowledges.
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
