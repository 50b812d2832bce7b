package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcache/internal/kv"
)

func itemAt(val string, ver uint64, deps ...kv.DepEntry) kv.Item {
	return kv.Item{Value: kv.Value(val), Version: kv.Version{Counter: ver}, Deps: deps}
}

// cachedVersion returns the version key is cached at (zero when absent).
func cachedVersion(c *Cache, key kv.Key) uint64 {
	v, _ := c.Cached(key)
	return v.Counter
}

// cached reports whether key is cached (ignoring TTL).
func cached(c *Cache, key kv.Key) bool {
	_, ok := c.Cached(key)
	return ok
}

// TestInstallIsAFillWithoutAFetch: Install obeys every rule a miss fill
// obeys — it serves later reads with no backend call, never replaces a
// newer entry with an older one, loses to a newer invalidation that
// follows it, and inserts nothing once the cache is closed.
func TestInstallIsAFillWithoutAFetch(t *testing.T) {
	t.Run("serves reads", func(t *testing.T) {
		b := newMapBackend()
		c := newCache(t, Config{Backend: b})
		c.Install("a", itemAt("a5", 5, dep("b", 5)))
		c.Install("b", itemAt("b5", 5, dep("a", 5)))
		vals, err := readTxn(c, 1, []kv.Key{"a", "b"})
		if err != nil || string(vals[0]) != "a5" || string(vals[1]) != "b5" {
			t.Fatalf("read of installed items = %q, %v", vals, err)
		}
		if m := c.Metrics(); b.getCount() != 0 || m.Hits != 2 || m.CommitInstalls != 2 {
			t.Fatalf("backend reads %d, hits %d, installs %d, want 0/2/2", b.getCount(), m.Hits, m.CommitInstalls)
		}
	})
	t.Run("newer entry wins", func(t *testing.T) {
		b := newMapBackend()
		c := newCache(t, Config{Backend: b})
		b.put("a", "a7", 7)
		c.Get(bgc, "a") // a later commit's fill got here first
		c.Install("a", itemAt("a5", 5))
		if got := cachedVersion(c, "a"); got != 7 {
			t.Fatalf("an older install replaced a@7 with a@%d", got)
		}
		c.Install("a", itemAt("a9", 9))
		if got := cachedVersion(c, "a"); got != 9 {
			t.Fatalf("a newer install left a@%d", got)
		}
	})
	t.Run("newer invalidation wins", func(t *testing.T) {
		b := newMapBackend()
		c := newCache(t, Config{Backend: b})
		c.Install("a", itemAt("a5", 5))
		c.Invalidate("a", kv.Version{Counter: 5}) // the stream's echo of the same commit
		if m := c.Metrics(); cachedVersion(c, "a") != 5 || m.InvalidationsStale != 1 {
			t.Fatalf("the commit's own echo evicted its install (stale %d)", m.InvalidationsStale)
		}
		c.Invalidate("a", kv.Version{Counter: 6})
		if cached(c, "a") {
			t.Fatal("a@5 survived the invalidation of a@6")
		}
	})
	t.Run("byte budget", func(t *testing.T) {
		c := newCache(t, Config{Backend: newMapBackend(), MaxBytes: 4 * int64(entryCostFor("k00", 100)), Shards: 1})
		val := string(make([]byte, 100))
		for i := 0; i < 20; i++ {
			c.Install(kv.Key(fmt.Sprintf("k%02d", i)), itemAt(val, uint64(i+1)))
		}
		if c.ResidentBytes() > c.MaxBytes() || c.Len() != 4 {
			t.Fatalf("%d entries, %d resident bytes under a budget of %d", c.Len(), c.ResidentBytes(), c.MaxBytes())
		}
	})
	t.Run("admission", func(t *testing.T) {
		c := newCache(t, Config{Backend: newMapBackend(), MaxBytes: 1 << 20, Admission: true, Shards: 1})
		c.Install("a", itemAt("a1", 1))
		if m := c.Metrics(); cached(c, "a") || m.AdmissionRejects != 1 || m.CommitInstalls != 0 {
			t.Fatalf("first sighting: cached %v, rejects %d, installs %d", cached(c, "a"), m.AdmissionRejects, m.CommitInstalls)
		}
		c.Install("a", itemAt("a2", 2))
		if m := c.Metrics(); cachedVersion(c, "a") != 2 || m.CommitInstalls != 1 {
			t.Fatalf("second sighting: a@%d, installs %d", cachedVersion(c, "a"), m.CommitInstalls)
		}
	})
	t.Run("closed", func(t *testing.T) {
		c := newCache(t, Config{Backend: newMapBackend()})
		c.Close()
		c.Install("a", itemAt("a1", 1))
		if c.Len() != 0 || c.Metrics().CommitInstalls != 0 {
			t.Fatal("Install inserted into a closed cache")
		}
	})
}

// TestInstallHammer races, per key, a writer (commit at the backend, then
// Install), the invalidation stream's late and duplicated echoes of those
// commits, readers that fill on a miss, and Close. A key's cached version
// only moves forward — an echo never evicts a newer install, an install
// never replaces a newer fill — so no reader sees a key's version go
// back; and Close ends it without a panic or a stuck goroutine.
func TestInstallHammer(t *testing.T) {
	const nKeys = 16
	b := newBatchBackend()
	for i := 0; i < nKeys; i++ {
		b.put(hammerKey(i), "v1", 1)
	}
	c, err := New(Config{Backend: b, Shards: 4, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg      sync.WaitGroup
		stop    = make(chan struct{})
		commits atomic.Uint64
		echoes  = make(chan ReadVersion, 256) // the lossy stream: full means dropped
	)
	commits.Store(1)
	// Writers: each owns a quarter of the keys, so versions rise per key.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i = (i + 4) % nKeys {
				select {
				case <-stop:
					return
				default:
				}
				key, v := hammerKey(i), commits.Add(1)
				b.put(key, "w", v)
				c.Install(key, itemAt("w", v))
				select {
				case echoes <- ReadVersion{Key: key, Version: kv.Version{Counter: v}}:
				default:
				}
			}
		}(w)
	}
	// The stream: every echo delivered late, and once more for luck.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev ReadVersion
		for {
			select {
			case <-stop:
				return
			case inv := <-echoes:
				c.Invalidate(inv.Key, inv.Version)
				c.Invalidate(prev.Key, prev.Version)
				prev = inv
			}
		}
	}()
	// Readers: plain and floored lookups; both fill on a miss.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			last := make([]uint64, nKeys)
			for i := r; ; i = (i + 1) % nKeys {
				item, ok, err := c.GetItem(bgc, hammerKey(i), kv.Version{Counter: uint64(r) * last[i]})
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil || !ok {
					t.Errorf("GetItem(%s) = %v, %v", hammerKey(i), ok, err)
					return
				}
				if item.Version.Counter < last[i] {
					t.Errorf("%s went back from version %d to %d", hammerKey(i), last[i], item.Version.Counter)
					return
				}
				last[i] = item.Version.Counter
			}
		}(r)
	}
	// Let every party make progress, then close mid-flight.
	deadline := time.Now().Add(5 * time.Second)
	for !t.Failed() && time.Now().Before(deadline) {
		if m := c.Metrics(); m.CommitInstalls >= 1000 && m.InvalidationsStale >= 100 && m.Reads >= 1000 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()
	close(stop)
	wg.Wait()
	n := c.Len()
	c.Install(hammerKey(0), itemAt("late", 1<<40))
	if c.Len() != n {
		t.Fatal("Install after Close changed the cache")
	}
	if m := c.Metrics(); m.CommitInstalls == 0 || m.InvalidationsStale == 0 || m.Reads != m.Hits+m.Misses {
		t.Fatalf("installs %d, stale echoes %d, reads %d = hits %d + misses %d?", m.CommitInstalls, m.InvalidationsStale, m.Reads, m.Hits, m.Misses)
	}
}
