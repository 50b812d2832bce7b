package lint_test

import (
	"testing"

	"tcache/internal/lint"
	"tcache/internal/lint/linttest"
)

// TestLocks runs the one lock analyzer over both of its testdata
// packages: the ordering rules and the nothing-blocking-under-a-lock
// rules.
func TestLocks(t *testing.T) {
	for _, dir := range []string{"lockorder", "nolockedcalls"} {
		t.Run(dir, func(t *testing.T) { linttest.Run(t, "testdata/src/"+dir, lint.Locks) })
	}
}

func TestCtxDiscipline(t *testing.T) {
	linttest.Run(t, "testdata/src/ctxdiscipline", lint.CtxDiscipline)
}

func TestSharedValue(t *testing.T) {
	linttest.Run(t, "testdata/src/sharedvalue", lint.SharedValue)
}

func TestWireExhaustive(t *testing.T) {
	linttest.Run(t, "testdata/src/wireexhaustive", lint.WireExhaustive)
}

// TestRepoIsLintClean is the meta-test: the full suite over the whole
// module (tests included) must produce zero findings, so a regression
// anywhere in the tree fails `go test` even before `make lint` runs.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module analysis in -short mode")
	}
	linttest.MustBeClean(t, "../..", []string{"./..."}, lint.All, true)
}
