package core

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestMetricsSnapshotMatchesDeclaration holds MetricsSnapshot to exactly
// the counters Metrics declares (every one tagged with its registry
// name), so the derived Metrics() and RegisterMetrics cannot drift from
// the snapshot struct the benchmark harness subtracts field by field.
func TestMetricsSnapshotMatchesDeclaration(t *testing.T) {
	mt, st := reflect.TypeOf(Metrics{}), reflect.TypeOf(MetricsSnapshot{})
	if mt.NumField() != st.NumField() {
		t.Fatalf("Metrics has %d fields, MetricsSnapshot %d", mt.NumField(), st.NumField())
	}
	for i := 0; i < mt.NumField(); i++ {
		mf, sf := mt.Field(i), st.Field(i)
		if mf.Tag.Get("metric") == "" {
			t.Errorf("Metrics.%s has no metric tag", mf.Name)
		}
		if mf.Name != sf.Name || sf.Type.Kind() != reflect.Uint64 {
			t.Errorf("field %d: Metrics.%s vs MetricsSnapshot.%s (%s)", i, mf.Name, sf.Name, sf.Type)
		}
	}
}

// TestTxnStripePadding: neighbouring stripes of Cache.stripes must not
// share a cache line (or the adjacent line the prefetcher pairs with it).
func TestTxnStripePadding(t *testing.T) {
	if size := unsafe.Sizeof(txnStripe{}); size%128 != 0 {
		t.Fatalf("txnStripe is %d bytes, want a multiple of 128: adjust its padding", size)
	}
}
