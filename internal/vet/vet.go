// Package vet implements mayavet, the simulator-specific static analysis
// driver run by `go run ./cmd/mayavet ./...` (and `make vet`).
//
// Generic Go linters cannot see the properties this codebase's security
// and reproducibility claims rest on: every random draw must come from the
// seeded generators in internal/rng, iteration order must never leak into
// simulation state, errors on experiment I/O paths must not be silently
// dropped, and the int32/uint16 index and pointer fields of the decoupled
// tag/data structures must only be narrowed under a proven bound. The
// original four analyzers (randsource, maporder, uncheckederr, narrowcast)
// enforce those rules one function at a time.
//
// The second generation is interprocedural: a dataflow substrate
// (program.go) builds a repo-wide call graph with per-function facts, and
// four analyzers run on top of it — seedflow (taint from nondeterminism
// sources into state/results/snapshots/rng seeds), snapshotfields
// (MAYASNAP codec completeness per stateful struct), goroutinectx
// (goroutines with no cancellation path), and atomicmix (fields accessed
// both atomically and plainly).
//
// Findings can be suppressed, one line at a time, with a directive
// comment. A directive that trails code covers its own line only; a
// directive on a line by itself covers the line below it:
//
//	//mayavet:ignore [analyzer] -- reason
//	//mayavet:checked reason        (alias for "ignore narrowcast")
//
// The reason text is mandatory by convention (the analyzers do not parse
// it) — a suppression with no justification should not survive review.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
	"sync"
)

// Finding is one analyzer report.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats a finding the way compilers do, so editors can jump to it.
func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Package is one type-checked package under analysis.
type Package struct {
	// ImportPath is the package's import path ("mayacache/internal/core").
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// TypeErrors collects type-checker diagnostics (analysis proceeds on a
	// best-effort basis when the package does not fully check).
	TypeErrors []error
}

// Analyzer is one mayavet check. Per-package analyzers set Run;
// interprocedural analyzers set RunProgram and receive the shared
// dataflow substrate instead. Exactly one of the two must be non-nil.
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(p *Package) []Finding
	RunProgram func(prog *Program) []Finding
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		RandSource(),
		MapOrder(),
		UncheckedErr(),
		NarrowCast(),
		SeedFlow(),
		SnapshotFields(),
		GoroutineCtx(),
		AtomicMix(),
	}
}

// directiveRe matches mayavet suppression comments. Group 1 is the verb
// (ignore or checked), group 2 the optional analyzer list.
var directiveRe = regexp.MustCompile(`^//\s*mayavet:(ignore|checked)\b[ \t]*([a-z, ]*)`)

// directive records one suppression comment.
type directive struct {
	analyzers map[string]bool // empty means "all analyzers"
	// trailing marks a directive that follows code on its line: it covers
	// that line only, never the line below.
	trailing bool
}

// fileLine keys a suppression directive by the file it lives in and its
// source line. Keying by line alone would let a directive in one file
// silence a finding at the same line number of a sibling file.
type fileLine struct {
	file string
	line int
}

// directivesByLine extracts the suppression directives of a file, keyed by
// (filename, line) of the comment itself; suppression also honors a
// directive on a line by itself above the finding.
func directivesByLine(fset *token.FileSet, file *ast.File) map[fileLine]directive {
	out := map[fileLine]directive{}
	code := codeLines(fset, file)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			m := directiveRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			d := directive{analyzers: map[string]bool{}}
			if m[1] == "checked" {
				d.analyzers["narrowcast"] = true
			}
			for _, name := range strings.FieldsFunc(m[2], func(r rune) bool { return r == ',' || r == ' ' }) {
				d.analyzers[name] = true
			}
			pos := fset.Position(c.Pos())
			// A // comment runs to the end of its line, so code on
			// the directive's line comes before it.
			d.trailing = code[pos.Line]
			out[fileLine{pos.Filename, pos.Line}] = d
		}
	}
	return out
}

// codeLines returns the lines of file that hold code. In gofmt'd code
// each such line holds the first or last token of some syntax node.
func codeLines(fset *token.FileSet, file *ast.File) map[int]bool {
	lines := map[int]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.CommentGroup, *ast.Comment:
			return false
		}
		lines[fset.Position(n.Pos()).Line] = true
		lines[fset.Position(n.End()-1).Line] = true
		return true
	})
	return lines
}

// covers reports whether the directive suppresses the named analyzer.
func (d directive) covers(analyzer string) bool {
	return len(d.analyzers) == 0 || d.analyzers[analyzer]
}

// RunAnalyzers applies every analyzer to every package and returns the
// surviving (non-suppressed) findings in a fully deterministic order.
// Per-package analyzers fan out over a worker pool (one job per
// package×analyzer pair); interprocedural analyzers run concurrently with
// them on the shared substrate. Determinism comes from collecting into
// pre-indexed slots, never from scheduling.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Finding {
	dirs := map[fileLine]directive{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for key, d := range directivesByLine(p.Fset, f) {
				dirs[key] = d
			}
		}
	}

	var perPkg, perProg []*Analyzer
	for _, a := range analyzers {
		if a.RunProgram != nil {
			perProg = append(perProg, a)
		} else {
			perPkg = append(perPkg, a)
		}
	}

	var prog *Program
	if len(perProg) > 0 {
		prog = BuildProgram(pkgs)
	}

	type job struct {
		slot int
		run  func() []Finding
	}
	var jobs []job
	for pi, p := range pkgs {
		for ai, a := range perPkg {
			p, a := p, a
			jobs = append(jobs, job{slot: pi*len(perPkg) + ai, run: func() []Finding { return a.Run(p) }})
		}
	}
	progBase := len(pkgs) * len(perPkg)
	for ai, a := range perProg {
		a := a
		jobs = append(jobs, job{slot: progBase + ai, run: func() []Finding { return a.RunProgram(prog) }})
	}

	results := make([][]Finding, progBase+len(perProg))
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxParallel())
	for _, j := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(j job) {
			defer wg.Done()
			defer func() { <-sem }()
			results[j.slot] = j.run()
		}(j)
	}
	wg.Wait()

	var out []Finding
	for _, findings := range results {
		for _, f := range findings {
			if d, ok := dirs[fileLine{f.Pos.Filename, f.Pos.Line}]; ok && d.covers(f.Analyzer) {
				continue
			}
			if d, ok := dirs[fileLine{f.Pos.Filename, f.Pos.Line - 1}]; ok && !d.trailing && d.covers(f.Analyzer) {
				continue
			}
			out = append(out, f)
		}
	}
	sortFindings(out)
	return out
}

// pkgPathOf returns the import path of the package an object belongs to,
// or "" for builtins and universe-scope objects.
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// rootIdent walks an lvalue expression (a.b[i].c, (*p).f, ...) to its
// leftmost identifier, or nil when the expression has no simple root.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
