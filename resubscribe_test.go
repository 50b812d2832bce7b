package tcache_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"tcache"
	"tcache/internal/chaos"
	"tcache/internal/cluster"
	"tcache/internal/transport"
)

// TestResubscribeRefusedReopenTakesNextEpoch: the three subscription
// entry points — a fixed address, a Remote's failover list, a Router's
// fleet — reconnect through one loop (transport.Resubscribe), and a
// reopen the server refuses must not be retried under the name it
// refused. Here "<name>#1", the first reopen's name, is already live on
// the server when the stream breaks; the subscription has to come back
// as "<name>#2" and deliver again.
func TestResubscribeRefusedReopenTakesNextEpoch(t *testing.T) {
	ctx := context.Background()
	d := tcache.OpenDB()
	t.Cleanup(func() { d.Close() })
	dbAddr, stopDB, err := tcache.ServeDB(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopDB)
	edge, err := tcache.ServeEdge(ctx, dbAddr, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(edge.Close)

	for _, c := range []struct {
		name string
		// server is where the subscription lands; subscribe reaches it
		// through addr, a proxy in front of it.
		server    string
		subscribe func(addr, name string, sink func(tcache.Invalidation)) (stop func(), err error)
	}{
		{"SubscribeInvalidations", dbAddr, func(addr, name string, sink func(tcache.Invalidation)) (func(), error) {
			return transport.SubscribeInvalidations(ctx, addr, name, sink)
		}},
		{"Remote.Subscribe", dbAddr, func(addr, name string, sink func(tcache.Invalidation)) (func(), error) {
			remote, err := tcache.Dial(ctx, addr)
			if err != nil {
				return nil, err
			}
			t.Cleanup(func() { remote.Close() })
			return remote.Subscribe(name, sink)
		}},
		{"Router.Subscribe", edge.Addr(), func(addr, name string, sink func(tcache.Invalidation)) (func(), error) {
			router, err := cluster.NewRouter(ctx, cluster.Config{Addrs: []string{addr}})
			if err != nil {
				return nil, err
			}
			t.Cleanup(router.Close)
			return router.Subscribe(name, sink)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			link := chaos.NewLink(chaos.ConnConfig{})
			paddr, stopProxy, err := link.Proxy(c.server)
			if err != nil {
				t.Fatal(err)
			}
			defer stopProxy()

			name := "sub-" + c.name
			got := make(chan tcache.Invalidation, 256)
			stop, err := c.subscribe(paddr, name, func(inv tcache.Invalidation) {
				select {
				case got <- inv:
				default:
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			defer stop()

			squatter, err := transport.OpenInvalidationStream(ctx, c.server, name+"#1")
			if err != nil {
				t.Fatal(err)
			}
			defer squatter.Close()

			// Cut the subscriber's stream (the squatter is not behind the
			// proxy) and let it straight back in.
			link.Partition()
			link.Heal()

			key := tcache.Key("k-" + c.name)
			deadline := time.Now().Add(10 * time.Second)
			for n := 0; ; n++ {
				if err := d.Update(ctx, func(tx *tcache.Tx) error {
					return tx.Set(key, tcache.Value(fmt.Sprint(n)))
				}); err != nil {
					t.Fatal(err)
				}
				select {
				case inv := <-got:
					if inv.Key != key {
						continue
					}
				case <-time.After(50 * time.Millisecond):
					if time.Now().After(deadline) {
						t.Fatalf("no invalidation after the stream broke with %q taken: the reopen never moved past the refused name", name+"#1")
					}
					continue
				}
				break
			}
			// It is live under the second epoch: that name is now refused.
			if dup, err := transport.OpenInvalidationStream(ctx, c.server, name+"#2"); err == nil {
				dup.Close()
				t.Fatalf("%q is free: the subscription did not come back under the next epoch", name+"#2")
			}
		})
	}
}
