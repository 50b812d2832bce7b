package db

import (
	"fmt"
	"sync"
	"testing"

	"tcache/internal/kv"
)

func storeItem(val string, ver uint64) kv.Item {
	return kv.Item{Value: kv.Value(val), Version: kv.Version{Counter: ver}}
}

func TestStorePutGet(t *testing.T) {
	s := newStore()
	s.Put("a", storeItem("va", 1))
	got, ok := s.GetShared("a")
	if !ok || string(got.Value) != "va" || got.Version.Counter != 1 {
		t.Fatalf("GetShared = %+v, %v", got, ok)
	}
	if _, ok := s.GetShared("missing"); ok {
		t.Fatal("GetShared(missing) = ok")
	}
}

func TestStorePutStoresCopy(t *testing.T) {
	s := newStore()
	it := kv.Item{Value: kv.Value("xy")}
	s.Put("a", it)
	it.Value[0] = 'Z'
	got, _ := s.GetShared("a")
	if string(got.Value) != "xy" {
		t.Fatal("Put aliased caller's value")
	}
}

func TestStoreVersion(t *testing.T) {
	s := newStore()
	s.Put("a", storeItem("v", 7))
	ver, ok := s.Version("a")
	if !ok || ver.Counter != 7 {
		t.Fatalf("Version = %v, %v", ver, ok)
	}
	if _, ok := s.Version("nope"); ok {
		t.Fatal("Version(missing) = ok")
	}
}

func TestStoreLen(t *testing.T) {
	s := newStore()
	for i := 0; i < 100; i++ {
		s.Put(kv.Key(fmt.Sprintf("k%d", i)), storeItem("v", uint64(i)))
	}
	if got := s.Len(); got != 100 {
		t.Fatalf("Len = %d, want 100", got)
	}
}

func TestStoreRange(t *testing.T) {
	s := newStore()
	for i := 0; i < 10; i++ {
		s.Put(kv.Key(fmt.Sprintf("k%d", i)), storeItem("v", uint64(i)))
	}
	n := 0
	s.Range(func(k kv.Key, it kv.Item) bool {
		n++
		return true
	})
	if n != 10 {
		t.Fatalf("Range visited %d, want 10", n)
	}
	n = 0
	s.Range(func(k kv.Key, it kv.Item) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early-stop Range visited %d, want 3", n)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := newStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := kv.Key(fmt.Sprintf("k%d", i%32))
				switch (g + i) % 3 {
				case 0:
					s.Put(k, storeItem("v", uint64(i)))
				case 1:
					s.GetShared(k)
				case 2:
					s.Version(k)
				}
			}
		}()
	}
	wg.Wait()
}
