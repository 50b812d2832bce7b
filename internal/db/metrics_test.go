package db

import (
	"reflect"
	"strings"
	"testing"
)

// TestMetricsSnapshotMatchesDeclaration holds MetricsSnapshot to the
// counters Metrics declares (every one tagged with its registry name)
// plus the sampled WAL and replication figures, so the derived
// Metrics() and RegisterMetrics cannot drift from the snapshot struct
// the benchmark harness subtracts field by field.
func TestMetricsSnapshotMatchesDeclaration(t *testing.T) {
	mt, st := reflect.TypeOf(Metrics{}), reflect.TypeOf(MetricsSnapshot{})
	counters := 0
	for i := 0; i < st.NumField(); i++ {
		sf := st.Field(i)
		if sf.Type.Kind() != reflect.Uint64 {
			t.Errorf("MetricsSnapshot.%s is %s, want uint64", sf.Name, sf.Type)
		}
		sampled := strings.HasPrefix(sf.Name, "WAL") || strings.HasPrefix(sf.Name, "Repl")
		mf, declared := mt.FieldByName(sf.Name)
		if declared == sampled {
			t.Errorf("MetricsSnapshot.%s: declared in Metrics = %v, sampled = %v", sf.Name, declared, sampled)
		}
		if declared {
			counters++
			if mf.Tag.Get("metric") == "" {
				t.Errorf("Metrics.%s has no metric tag", sf.Name)
			}
		}
	}
	if mt.NumField() != counters {
		t.Errorf("Metrics declares %d counters, MetricsSnapshot carries %d of them", mt.NumField(), counters)
	}
}
