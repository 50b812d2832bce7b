// Package lint is tcachelint: a family of static analyzers that
// mechanically enforce this repository's concurrency and wire-protocol
// invariants — the rules that previously lived only in comments and
// reviewer memory. The paper's consistency guarantees (eq.1/eq.2
// read-your-invalidations) rest on these invariants holding everywhere,
// so they are checked by machine, on every build, instead of by hope.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) but is self-contained on the standard
// library: packages are loaded through `go list -export`, whose export
// data feeds the stdlib gc importer, so the whole suite builds and runs
// offline with no module downloads. See load.go.
//
// Analyzers are configured through source annotations:
//
//	//tcache:lockclass NAME     on a mutex struct field — names its lock class
//	//tcache:lockorder A < B    package-level — A may be held when acquiring B
//	//tcache:holds A[,B]        on a func — it is called with these classes held
//	//tcache:hook               on a func type — values of it run outside all locks
//	//tcache:exhaustive         on a switch — cases must cover the tag type's consts
//
// A finding is suppressed with a staticcheck-style ignore comment on the
// flagged line (or the line above), with a mandatory justification:
//
//	//lint:ignore locks,sharedvalue <why this is safe>
//
// An ignore with no justification is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Run is invoked once per loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore comments.
	Name string
	// Doc is the one-line description `tcachelint -list` prints.
	Doc string
	// Run reports findings on pass via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed files, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo records types and object resolution for Files.
	TypesInfo *types.Info
	// PkgPath is the import path as listed (test variants carry the
	// `pkg [pkg.test]` suffix go list uses).
	PkgPath string

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// --- tcache: directives --------------------------------------------------

// directive is one parsed //tcache:NAME [args] comment.
type directive struct {
	name string // e.g. "holds", "lockclass"
	args string // remainder after the name, trimmed
	pos  token.Pos
	// line / endLine are the comment's physical lines, used to attach
	// free-floating directives to the following statement.
	line, endLine int
}

const directivePrefix = "//tcache:"

// parseDirective extracts a //tcache: directive from one comment line.
func parseDirective(c *ast.Comment, fset *token.FileSet) (directive, bool) {
	text := c.Text
	if !strings.HasPrefix(text, directivePrefix) {
		return directive{}, false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	name, args, _ := strings.Cut(rest, " ")
	p := fset.Position(c.Pos())
	return directive{
		name:    strings.TrimSpace(name),
		args:    strings.TrimSpace(args),
		pos:     c.Pos(),
		line:    p.Line,
		endLine: fset.Position(c.End()).Line,
	}, true
}

// directivesIn collects every //tcache: directive of a comment group.
func directivesIn(g *ast.CommentGroup, fset *token.FileSet) []directive {
	if g == nil {
		return nil
	}
	var out []directive
	for _, c := range g.List {
		if d, ok := parseDirective(c, fset); ok {
			out = append(out, d)
		}
	}
	return out
}

// docDirective returns the named directive from a declaration's doc
// comment group, if present.
func docDirective(doc *ast.CommentGroup, fset *token.FileSet, name string) (directive, bool) {
	for _, d := range directivesIn(doc, fset) {
		if d.name == name {
			return d, true
		}
	}
	return directive{}, false
}

// fileDirectives indexes every //tcache: directive of a file by the line
// a statement must START on for the directive to attach to it: the
// directive's own line (trailing comment) and the line after its last
// line (preceding comment).
type fileDirectives map[int][]directive

func indexFileDirectives(f *ast.File, fset *token.FileSet) fileDirectives {
	idx := make(fileDirectives)
	for _, g := range f.Comments {
		for _, d := range directivesIn(g, fset) {
			idx[d.line] = append(idx[d.line], d)
			if d.endLine+1 != d.line {
				idx[d.endLine+1] = append(idx[d.endLine+1], d)
			} else {
				idx[d.line+1] = append(idx[d.line+1], d)
			}
		}
	}
	return idx
}

// at returns the named directive attached to a node starting at pos.
func (idx fileDirectives) at(fset *token.FileSet, pos token.Pos, name string) (directive, bool) {
	for _, d := range idx[fset.Position(pos).Line] {
		if d.name == name {
			return d, true
		}
	}
	return directive{}, false
}

// --- //lint:ignore suppression -------------------------------------------

const ignorePrefix = "//lint:ignore"

// ignoreDirective is one suppression comment: the analyzers it silences
// and the line range it covers (its own line, and the following line
// when the comment stands alone).
type ignoreDirective struct {
	analyzers []string // names, or ["*"]
	reason    string
	pos       token.Pos
	lines     map[int]bool
}

func (ig *ignoreDirective) matches(analyzer string, line int) bool {
	if !ig.lines[line] {
		return false
	}
	for _, a := range ig.analyzers {
		if a == "*" || a == analyzer {
			return true
		}
	}
	return false
}

// collectIgnores parses every //lint:ignore comment of a file. A
// malformed directive (missing analyzer list or missing justification)
// is reported as a finding of the pseudo-analyzer "lintignore".
func collectIgnores(f *ast.File, fset *token.FileSet, report func(Diagnostic)) []*ignoreDirective {
	var out []*ignoreDirective
	for _, g := range f.Comments {
		for _, c := range g.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
			names, reason, _ := strings.Cut(rest, " ")
			reason = strings.TrimSpace(reason)
			if names == "" || reason == "" {
				report(Diagnostic{
					Pos:      fset.Position(c.Pos()),
					Analyzer: "lintignore",
					Message:  "malformed //lint:ignore: want `//lint:ignore <analyzer>[,<analyzer>] <justification>` (justification is mandatory)",
				})
				continue
			}
			line := fset.Position(c.Pos()).Line
			end := fset.Position(c.End()).Line
			out = append(out, &ignoreDirective{
				analyzers: strings.Split(names, ","),
				reason:    reason,
				pos:       c.Pos(),
				lines:     map[int]bool{line: true, end + 1: true},
			})
		}
	}
	return out
}

// suppress filters diagnostics covered by ignore directives. Ignores are
// collected per file; a malformed ignore surfaces as a diagnostic.
func suppress(diags []Diagnostic, files []*ast.File, fset *token.FileSet) []Diagnostic {
	var extra []Diagnostic
	ignores := make(map[string][]*ignoreDirective)
	for _, f := range files {
		name := fset.Position(f.Pos()).Filename
		ignores[name] = collectIgnores(f, fset, func(d Diagnostic) { extra = append(extra, d) })
	}
	out := diags[:0]
	for _, d := range diags {
		kept := true
		for _, ig := range ignores[d.Pos.Filename] {
			if ig.matches(d.Analyzer, d.Pos.Line) {
				kept = false
				break
			}
		}
		if kept {
			out = append(out, d)
		}
	}
	return append(out, extra...)
}

// sortDiagnostics orders findings by file, line, column, analyzer.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
