package transport

// Tests for OpUpdate: observed read versions validated at the database,
// the conflict detail coming back over the wire, and the cache server's
// mid-tier relay, which hands the commit's answer back and invalidates
// its own copies synchronously.

import (
	"errors"
	"reflect"
	"testing"

	"tcache/internal/core"
	"tcache/internal/db"
	"tcache/internal/kv"
)

// TestValidatedUpdateOverWire commits one optimistic transaction through
// the DB server: fresh observations commit in one round trip, stale ones
// come back as a *db.ConflictError carrying the stale key and the
// committed version — matchable under both ErrConflict identities.
func TestValidatedUpdateOverWire(t *testing.T) {
	s := newStack(t, core.StrategyAbort)
	v1, err := s.dbCli.ValidatedUpdate(bg, nil, []KeyValue{{Key: "k", Value: kv.Value("v1")}})
	if err != nil {
		t.Fatal(err)
	}

	// Fresh observation: commits, version advances.
	v2, err := s.dbCli.ValidatedUpdate(bg,
		[]ObservedRead{{Key: "k", Version: v1, Found: true}},
		[]KeyValue{{Key: "k", Value: kv.Value("v2")}})
	if err != nil {
		t.Fatal(err)
	}
	if !v1.Less(v2) {
		t.Fatalf("commit version %s not after %s", v2, v1)
	}
	if item, ok, _ := s.dbCli.ReadItem(bg, "k"); !ok || string(item.Value) != "v2" || item.Version != v2 {
		t.Fatalf("committed item = %q@%s", item.Value, item.Version)
	}

	// Stale observation (still v1): rejected, with the detail intact.
	_, err = s.dbCli.ValidatedUpdate(bg,
		[]ObservedRead{{Key: "k", Version: v1, Found: true}},
		[]KeyValue{{Key: "k", Value: kv.Value("v3")}})
	if !errors.Is(err, ErrConflict) || !errors.Is(err, db.ErrConflict) {
		t.Fatalf("stale update = %v, want ErrConflict under both identities", err)
	}
	var ce *db.ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("conflict detail lost over the wire: %v", err)
	}
	if ce.Key != "k" || ce.Current != v2 || !ce.Found {
		t.Fatalf("conflict detail = %+v, want k@%s", ce, v2)
	}
	if item, _, _ := s.dbCli.ReadItem(bg, "k"); string(item.Value) != "v2" {
		t.Fatalf("rejected commit leaked: %q", item.Value)
	}

	// Presence mismatch: observing a key as absent that now exists.
	_, err = s.dbCli.ValidatedUpdate(bg,
		[]ObservedRead{{Key: "k", Found: false}},
		[]KeyValue{{Key: "other", Value: kv.Value("x")}})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("presence mismatch = %v, want ErrConflict", err)
	}

	// Blind write (empty observed set): commits unconditionally.
	if _, err := s.dbCli.ValidatedUpdate(bg, nil, []KeyValue{{Key: "blind", Value: kv.Value("b")}}); err != nil {
		t.Fatalf("blind validated write = %v", err)
	}
}

// silentMidTier builds a cache server over a DB with NO invalidation
// bridge: its cache only learns of writes through the update relay's
// self-invalidation (or by refetching) — which is exactly what these
// tests need to observe.
func silentMidTier(t *testing.T) (dbCli *DBClient, cache *core.Cache, cacheAddr string) {
	t.Helper()
	d := db.Open(db.Config{DepBound: 5})
	t.Cleanup(func() { d.Close() })
	dbSrv := NewDBServer(d, t.Logf)
	dbAddr, err := dbSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dbSrv.Close)
	dbCli, err = DialDB(bg, dbAddr, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dbCli.Close)
	cache, err = core.New(core.Config{Backend: dbCli, Strategy: core.StrategyRetry})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cache.Close)
	srv := NewCacheServer(cache, t.Logf)
	cacheAddr, err = srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return dbCli, cache, cacheAddr
}

// TestMidTierRelaysValidatedUpdate: an edge client commits THROUGH a
// tcached (the cache server relays OpUpdate to its backend), and the
// relay applies the writes' invalidations to its own cache
// synchronously — with no invalidation stream at all, the relaying node
// serves the new value immediately after the update returns.
func TestMidTierRelaysValidatedUpdate(t *testing.T) {
	dbCli, _, cacheAddr := silentMidTier(t)
	v1, err := dbCli.ValidatedUpdate(bg, nil, []KeyValue{{Key: "k", Value: kv.Value("old")}})
	if err != nil {
		t.Fatal(err)
	}

	edge, err := DialDB(bg, cacheAddr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()

	// Warm the mid-tier cache through the edge client.
	if item, ok, err := edge.ReadItem(bg, "k"); err != nil || !ok || string(item.Value) != "old" {
		t.Fatalf("warmup = %q, %v, %v", item.Value, ok, err)
	}

	// Commit through the mid-tier.
	v2, err := edge.ValidatedUpdate(bg,
		[]ObservedRead{{Key: "k", Version: v1, Found: true}},
		[]KeyValue{{Key: "k", Value: kv.Value("new")}})
	if err != nil {
		t.Fatal(err)
	}
	if !v1.Less(v2) {
		t.Fatalf("relay returned version %s, not after %s", v2, v1)
	}

	// Self-invalidation is synchronous: with no invalidation stream, an
	// unfloored read through the same node must already see "new".
	if item, ok, err := edge.ReadItem(bg, "k"); err != nil || !ok || string(item.Value) != "new" {
		t.Fatalf("read after relayed update = %q, %v, %v (mid-tier still stale)", item.Value, ok, err)
	}

	// Conflict healing at the relay: let the DB move on underneath the
	// mid-tier's (now re-cached) copy, then fail a validation through it.
	v3, err := dbCli.ValidatedUpdate(bg, nil, []KeyValue{{Key: "k", Value: kv.Value("newer")}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = edge.ValidatedUpdate(bg,
		[]ObservedRead{{Key: "k", Version: v2, Found: true}},
		[]KeyValue{{Key: "k", Value: kv.Value("doomed")}})
	var ce *db.ConflictError
	if !errors.As(err, &ce) || ce.Current != v3 {
		t.Fatalf("relayed conflict = %v, want detail at %s", err, v3)
	}
	// The relay evicted its stale copy: the next unfloored read refetches.
	if item, _, err := edge.ReadItem(bg, "k"); err != nil || string(item.Value) != "newer" {
		t.Fatalf("read after relayed conflict = %q, %v (stale copy not healed)", item.Value, err)
	}
}

// TestUpdateAnsweredAlikeByBothTiers: there is one update op, so a tdbd
// and a tcached relaying to it give the same answer to the same request
// — an update with no writes commits nothing, successfully; one whose
// observed versions are stale is a CodeConflict naming the stale key
// and the version now committed; a commit answers with the dependency
// list the database stored with each write, which the relay hands back
// untouched.
func TestUpdateAnsweredAlikeByBothTiers(t *testing.T) {
	dbCli, _, cacheAddr := silentMidTier(t)
	edge, err := DialDB(bg, cacheAddr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	v1, err := dbCli.ValidatedUpdate(bg, nil, []KeyValue{{Key: "k", Value: kv.Value("v1")}})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := dbCli.ValidatedUpdate(bg, nil, []KeyValue{{Key: "k", Value: kv.Value("v2")}})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		req  Request
		want Response
	}{
		{"no reads, no writes", Request{Op: OpUpdate}, Response{Code: CodeOK, WriteDeps: []kv.DepList{}}},
		{"fresh read, no writes",
			Request{Op: OpUpdate, ReadVersions: []ObservedRead{{Key: "k", Version: v2, Found: true}}},
			Response{Code: CodeOK, WriteDeps: []kv.DepList{}}},
		{"stale read",
			Request{Op: OpUpdate,
				ReadVersions: []ObservedRead{{Key: "k", Version: v1, Found: true}},
				Writes:       []KeyValue{{Key: "k", Value: kv.Value("doomed")}}},
			Response{Code: CodeConflict, ConflictKey: "k", ConflictVersion: v2, ConflictFound: true}},
		{"stale absence",
			Request{Op: OpUpdate, ReadVersions: []ObservedRead{{Key: "k"}}},
			Response{Code: CodeConflict, ConflictKey: "k", ConflictVersion: v2, ConflictFound: true}},
	} {
		for tier, cli := range map[string]*DBClient{"tdbd": dbCli, "tcached": edge} {
			got, err := cli.roundTrip(bg, tc.req)
			if err != nil {
				t.Fatalf("%s via %s: %v", tc.name, tier, err)
			}
			// Only the commit version and the error prose are free to vary.
			got.Version, got.Err = kv.Version{}, ""
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s via %s = %+v, want %+v", tc.name, tier, got, tc.want)
			}
		}
	}
	if item, _, _ := dbCli.ReadItem(bg, "k"); string(item.Value) != "v2" {
		t.Fatalf("a rejected or write-less update changed k to %q", item.Value)
	}

	// A commit: each tier answers with one list per write, and each list
	// is what the database stored with that key at the commit version.
	commit := Request{Op: OpUpdate,
		ReadVersions: []ObservedRead{{Key: "k", Version: v2, Found: true}},
		Writes:       []KeyValue{{Key: "a", Value: kv.Value("1")}, {Key: "b", Value: kv.Value("2")}, {Key: "a", Value: kv.Value("3")}}}
	shape := map[string][][]kv.Key{}
	for tier, cli := range map[string]*DBClient{"tdbd": dbCli, "tcached": edge} {
		got, err := cli.roundTrip(bg, commit)
		if err != nil || got.Code != CodeOK || len(got.WriteDeps) != len(commit.Writes) {
			t.Fatalf("commit via %s = %+v, %v", tier, got, err)
		}
		for i, w := range commit.Writes {
			stored, ok, err := dbCli.ReadItem(bg, w.Key)
			if err != nil || !ok || stored.Version != got.Version || !stored.Deps.Equal(got.WriteDeps[i]) {
				t.Errorf("via %s: write %d (%q) answered %s@%s, the database stored %s@%s",
					tier, i, w.Key, got.WriteDeps[i], got.Version, stored.Deps, stored.Version)
			}
			if len(got.WriteDeps[i]) == 0 {
				t.Errorf("via %s: write %d (%q) came back without a dependency list", tier, i, w.Key)
			}
			shape[tier] = append(shape[tier], got.WriteDeps[i].Keys())
		}
	}
	if !reflect.DeepEqual(shape["tdbd"], shape["tcached"]) {
		t.Errorf("the tiers answered the same commit with different lists: %v vs %v", shape["tdbd"], shape["tcached"])
	}
}
