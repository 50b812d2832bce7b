package wal

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// filled returns n values of T whose every field testing/quick has set
// to a random non-zero value (seeded, so the values repeat), so a round
// trip that drops any field fails without a sample naming it. A field
// type quick cannot generate fails the test.
func filled[T any](t *testing.T, n int) []T {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	out := make([]T, n)
	for k := range out {
		v := reflect.ValueOf(&out[k]).Elem()
		for i := 0; i < v.NumField(); i++ {
			for f := v.Field(i); f.IsZero(); {
				g, ok := quick.Value(f.Type(), r)
				if !ok {
					t.Fatalf("%s.%s: testing/quick cannot generate a %s", v.Type(), v.Type().Field(i).Name, f.Type())
				}
				f.Set(g)
			}
		}
	}
	return out
}

// TestManifestRoundTrip: parseManifest reads back every field
// encodeManifest wrote.
func TestManifestRoundTrip(t *testing.T) {
	for _, m := range filled[manifest](t, 100) {
		m.Snapshot = snapName(m.FirstSeg % 1e16) // the format admits only snapshot file names
		got, err := parseManifest(manifestName, encodeManifest(m))
		if err != nil || got != m {
			t.Fatalf("manifest round trip: err %v\n got %#v\nwant %#v", err, got, m)
		}
	}
}
