package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The taint engine behind seedflow. Taint means "this value is not a pure
// function of (seed, iters, shards)": wall-clock reads, process identity,
// scheduler geometry, environment lookups, and map iteration order. The
// analysis is flow-insensitive within a function (one taint set per
// variable, iterated to a local fixpoint) and summary-based across
// functions: each function exports which sources reach its results, which
// parameters flow to results, and which parameters reach a sink inside it.
// Summaries are propagated over the call graph to a global fixpoint, so a
// source can travel through helpers before hitting a sink and still be
// reported — at the call site that bridges the two.

// nondetSources maps "pkgpath.Name" of package-level functions to the
// source description used in findings.
var nondetSources = map[string]string{
	"time.Now":           "time.Now",
	"os.Getpid":          "os.Getpid",
	"os.Getenv":          "os.Getenv",
	"os.LookupEnv":       "os.LookupEnv",
	"os.Environ":         "os.Environ",
	"runtime.NumCPU":     "runtime.NumCPU",
	"runtime.GOMAXPROCS": "runtime.GOMAXPROCS",
}

const mapOrderSource = "map range order"

// sanctionedDerivation reports whether fn's result is defined to be part
// of the reproducibility spec even though it consults the machine. The one
// such function is mc.DefaultShards: the shard count defaults to
// GOMAXPROCS by documented design, and shards is the third coordinate of
// the (seed, iters, shards) contract, so results may legitimately depend
// on it. A worker count is not sanctioned: it bounds wall clock only and
// must never reach a result. Matching by path suffix keeps the fixture
// module's mc shim covered too.
func sanctionedDerivation(fn *types.Func) bool {
	return fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "internal/mc") && fn.Name() == "DefaultShards"
}

// sanctionedSpecField reports whether a named struct type's field is a
// field whose value never influences results. The one such field is
// cachesim.RunSpec.Parallelism, which no longer selects anything: every
// run is single-threaded, and the field stays only until the benchmark
// module stops setting it. Values flowing into it are not tracked. The
// sanction and its fixtures go together with the field. Matching the
// package by name keeps the fixture module's shim covered like the real
// package.
func sanctionedSpecField(named *types.Named, field string) bool {
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Name() == "cachesim" && obj.Name() == "RunSpec" && field == "Parallelism"
}

// taint is the lattice element: the set of source descriptions that may
// have flowed into a value, plus the set of enclosing-function parameters
// it may derive from.
type taint struct {
	srcs   map[string]bool
	params map[int]bool
}

func (t taint) empty() bool { return len(t.srcs) == 0 && len(t.params) == 0 }

func (t *taint) add(other taint) bool {
	changed := false
	//mayavet:ignore maporder -- set union plus an OR-accumulated flag; order-insensitive
	for s := range other.srcs {
		if t.srcs == nil {
			t.srcs = map[string]bool{}
		}
		if !t.srcs[s] {
			t.srcs[s] = true
			changed = true
		}
	}
	//mayavet:ignore maporder -- set union plus an OR-accumulated flag; order-insensitive
	for p := range other.params {
		if t.params == nil {
			t.params = map[int]bool{}
		}
		if !t.params[p] {
			t.params[p] = true
			changed = true
		}
	}
	return changed
}

func srcTaint(desc string) taint  { return taint{srcs: map[string]bool{desc: true}} }
func paramTaint(i int) taint      { return taint{params: map[int]bool{i: true}} }
func (t taint) srcList() []string { return sortedKeys(t.srcs) }

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	//mayavet:ignore maporder -- keys are sorted immediately below
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// taintSummary is one function's exported dataflow facts.
type taintSummary struct {
	// ret: source descriptions that may flow into any result.
	ret map[string]bool
	// paramRet: parameters that may flow into any result.
	paramRet map[int]bool
	// paramSink: parameters that reach a sink inside the function (or
	// transitively through its callees), mapped to the sink description.
	paramSink map[int]string
}

func (s *taintSummary) equal(o *taintSummary) bool {
	if len(s.ret) != len(o.ret) || len(s.paramRet) != len(o.paramRet) || len(s.paramSink) != len(o.paramSink) {
		return false
	}
	//mayavet:ignore maporder -- equality scan: every path returns the same answer in any order
	for k := range s.ret {
		if !o.ret[k] {
			return false
		}
	}
	//mayavet:ignore maporder -- equality scan: every path returns the same answer in any order
	for k := range s.paramRet {
		if !o.paramRet[k] {
			return false
		}
	}
	//mayavet:ignore maporder -- equality scan: every path returns the same answer in any order
	for k, v := range s.paramSink {
		if o.paramSink[k] != v {
			return false
		}
	}
	return true
}

// taintEngine drives the global fixpoint and the reporting pass.
type taintEngine struct {
	prog      *Program
	summaries map[string]*taintSummary
}

func newTaintEngine(prog *Program) *taintEngine {
	return &taintEngine{prog: prog, summaries: map[string]*taintSummary{}}
}

// solve iterates summaries to a fixpoint. Function order is sorted for
// determinism; the iteration cap is a safety net (the lattice is finite
// and monotone, so convergence is guaranteed well before it).
func (e *taintEngine) solve() {
	ids := make([]string, 0, len(e.prog.Funcs))
	//mayavet:ignore maporder -- keys are sorted immediately below
	for id := range e.prog.Funcs {
		ids = append(ids, id)
		e.summaries[id] = &taintSummary{ret: map[string]bool{}, paramRet: map[int]bool{}, paramSink: map[int]string{}}
	}
	sort.Strings(ids)
	for iter := 0; iter < 32; iter++ {
		changed := false
		for _, id := range ids {
			next, _ := e.analyze(e.prog.Funcs[id], false)
			if !next.equal(e.summaries[id]) {
				e.summaries[id] = next
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// report runs one more pass over every function with findings enabled.
func (e *taintEngine) report() []Finding {
	ids := make([]string, 0, len(e.prog.Funcs))
	//mayavet:ignore maporder -- keys are sorted immediately below
	for id := range e.prog.Funcs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []Finding
	seen := map[string]bool{}
	for _, id := range ids {
		_, findings := e.analyze(e.prog.Funcs[id], true)
		for _, f := range findings {
			key := f.Pos.String() + "|" + f.Message
			if !seen[key] {
				seen[key] = true
				out = append(out, f)
			}
		}
	}
	return out
}

// funcState is the per-function analysis context.
type funcState struct {
	e        *taintEngine
	fn       *FuncNode
	pkg      *Package
	vars     map[types.Object]*taint
	paramIdx map[types.Object]int
	results  []types.Object // named result parameters, for bare returns
	litSpans []span         // FuncLit ranges: returns inside them are not ours
	summary  *taintSummary
	report   bool
	findings []Finding
}

type span struct{ lo, hi token.Pos }

// analyze computes fn's summary (and findings when report is set).
func (e *taintEngine) analyze(fn *FuncNode, report bool) (*taintSummary, []Finding) {
	st := &funcState{
		e:        e,
		fn:       fn,
		pkg:      fn.Pkg,
		vars:     map[types.Object]*taint{},
		paramIdx: map[types.Object]int{},
		summary:  &taintSummary{ret: map[string]bool{}, paramRet: map[int]bool{}, paramSink: map[int]string{}},
		report:   report,
	}
	sig, _ := fn.Obj.Type().(*types.Signature)
	if sig != nil {
		for i := 0; i < sig.Params().Len(); i++ {
			st.paramIdx[sig.Params().At(i)] = i
		}
		for i := 0; i < sig.Results().Len(); i++ {
			if v := sig.Results().At(i); v.Name() != "" {
				st.results = append(st.results, v)
			}
		}
	}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			st.litSpans = append(st.litSpans, span{lit.Pos(), lit.End()})
		}
		return true
	})
	// Local fixpoint: assignments can feed each other in any order.
	for i := 0; i < 16; i++ {
		if !st.walk(false) {
			break
		}
	}
	if report {
		st.walk(true)
	}
	return st.summary, st.findings
}

// walk makes one pass over the body, updating variable taints and the
// summary. With emit set it also records findings for source-carrying
// flows into sinks. Returns whether any taint set grew.
func (st *funcState) walk(emit bool) bool {
	changed := false
	ast.Inspect(st.fn.Decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			changed = st.assign(s, emit) || changed
		case *ast.RangeStmt:
			changed = st.rangeStmt(s) || changed
		case *ast.ReturnStmt:
			if !st.insideLit(s.Pos()) {
				changed = st.returnStmt(s) || changed
			}
		case *ast.CallExpr:
			st.callSinks(s, emit)
			st.launder(s)
		}
		return true
	})
	return changed
}

func (st *funcState) insideLit(pos token.Pos) bool {
	for _, sp := range st.litSpans {
		if pos >= sp.lo && pos < sp.hi {
			return true
		}
	}
	return false
}

// assign propagates rhs taint into lhs variables and checks field-write
// sinks. A single multi-value rhs spreads its taint over every lhs.
func (st *funcState) assign(s *ast.AssignStmt, emit bool) bool {
	changed := false
	take := func(lhs ast.Expr, t taint) {
		if t.empty() {
			return
		}
		switch x := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if obj := st.pkg.Info.ObjectOf(x); obj != nil {
				changed = st.mergeVar(obj, t) || changed
			}
		default:
			// Writing a sanctioned scheduling-knob field leaves the
			// containing struct untainted: the field never reaches results.
			if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
				if selection, ok := st.pkg.Info.Selections[sel]; ok && selection.Kind() == types.FieldVal {
					if n := namedOf(selection.Recv()); n != nil && sanctionedSpecField(n, sel.Sel.Name) {
						return
					}
				}
			}
			// Writing through a selector/index: taint the root variable
			// too (the container now holds the value), then check sinks.
			if root := rootIdent(lhs); root != nil {
				if obj := st.pkg.Info.ObjectOf(root); obj != nil {
					changed = st.mergeVar(obj, t) || changed
				}
			}
			st.fieldSink(lhs, t, emit)
		}
	}
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		t := st.eval(s.Rhs[0])
		for _, lhs := range s.Lhs {
			take(lhs, t)
		}
		return changed
	}
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		t := st.eval(s.Rhs[i])
		if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
			// Compound assignment reads the lhs as well.
			t.add(st.eval(lhs))
		}
		take(lhs, t)
	}
	return changed
}

// rangeStmt handles `range m`: over a map, the loop variables carry map
// iteration order; over anything else they inherit the operand's taint.
func (st *funcState) rangeStmt(s *ast.RangeStmt) bool {
	var t taint
	xt := st.pkg.Info.TypeOf(s.X)
	if xt != nil {
		if _, isMap := xt.Underlying().(*types.Map); isMap {
			t = srcTaint(mapOrderSource)
		} else {
			t = st.eval(s.X)
		}
	}
	if t.empty() {
		return false
	}
	changed := false
	for _, v := range []ast.Expr{s.Key, s.Value} {
		if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
			if obj := st.pkg.Info.ObjectOf(id); obj != nil {
				changed = st.mergeVar(obj, t) || changed
			}
		}
	}
	return changed
}

func (st *funcState) returnStmt(s *ast.ReturnStmt) bool {
	changed := false
	merge := func(t taint) {
		//mayavet:ignore maporder -- set union plus an OR-accumulated flag; order-insensitive
		for src := range t.srcs {
			if !st.summary.ret[src] {
				st.summary.ret[src] = true
				changed = true
			}
		}
		//mayavet:ignore maporder -- set union plus an OR-accumulated flag; order-insensitive
		for p := range t.params {
			if !st.summary.paramRet[p] {
				st.summary.paramRet[p] = true
				changed = true
			}
		}
	}
	if len(s.Results) == 0 {
		for _, obj := range st.results {
			if t := st.vars[obj]; t != nil {
				merge(*t)
			}
		}
		return changed
	}
	for _, r := range s.Results {
		merge(st.eval(r))
	}
	return changed
}

func (st *funcState) mergeVar(obj types.Object, t taint) bool {
	cur := st.vars[obj]
	if cur == nil {
		cur = &taint{}
		st.vars[obj] = cur
	}
	return cur.add(t)
}

// launder clears map-order taint from a slice variable handed to an
// in-place sort: `sort.X(keys)` / `slices.SortX(keys)` restores a
// deterministic order, which is exactly what the source tracked.
func (st *funcState) launder(call *ast.CallExpr) {
	fn := calleeOf(st.pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	if path != "sort" && path != "slices" {
		return
	}
	if path == "slices" && !strings.HasPrefix(fn.Name(), "Sort") {
		return
	}
	for _, arg := range call.Args {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok {
			continue
		}
		if obj := st.pkg.Info.ObjectOf(id); obj != nil {
			if t := st.vars[obj]; t != nil {
				delete(t.srcs, mapOrderSource)
			}
		}
	}
}

// eval computes the taint of an expression.
func (st *funcState) eval(e ast.Expr) taint {
	var t taint
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := st.pkg.Info.ObjectOf(x)
		if obj == nil {
			return t
		}
		if i, ok := st.paramIdx[obj]; ok {
			t.add(paramTaint(i))
		}
		if cur := st.vars[obj]; cur != nil {
			t.add(*cur)
		}
	case *ast.BasicLit:
	case *ast.BinaryExpr:
		t.add(st.eval(x.X))
		t.add(st.eval(x.Y))
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			// Channel receives deliver whatever the sender computed; the
			// sender's own flows are analyzed where they happen.
			return t
		}
		t.add(st.eval(x.X))
	case *ast.StarExpr:
		t.add(st.eval(x.X))
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := st.pkg.Info.ObjectOf(id).(*types.PkgName); isPkg {
				return t // qualified identifier, not a field read
			}
		}
		t.add(st.eval(x.X))
	case *ast.IndexExpr:
		t.add(st.eval(x.X))
	case *ast.SliceExpr:
		t.add(st.eval(x.X))
	case *ast.CompositeLit:
		named := namedOf(st.pkg.Info.TypeOf(x))
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if key, isIdent := kv.Key.(*ast.Ident); isIdent && named != nil && sanctionedSpecField(named, key.Name) {
					continue
				}
				t.add(st.eval(kv.Value))
			} else {
				t.add(st.eval(elt))
			}
		}
	case *ast.TypeAssertExpr:
		t.add(st.eval(x.X))
	case *ast.CallExpr:
		t.add(st.evalCall(x))
	}
	return t
}

// evalCall computes the taint of a call's result: sources introduce taint,
// summarized callees propagate precisely, everything else is conservative
// (union of the arguments and any method receiver).
func (st *funcState) evalCall(call *ast.CallExpr) taint {
	var t taint
	// Conversions pass the operand through.
	if tv, ok := st.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		for _, a := range call.Args {
			t.add(st.eval(a))
		}
		return t
	}
	// Builtins: len/cap of a map is just a count (only iteration order is
	// nondeterministic); len of a tainted string still leaks its value.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := st.pkg.Info.ObjectOf(id).(*types.Builtin); isBuiltin {
			switch id.Name {
			case "len", "cap":
				if len(call.Args) == 1 {
					if xt := st.pkg.Info.TypeOf(call.Args[0]); xt != nil {
						if _, isMap := xt.Underlying().(*types.Map); isMap {
							return t
						}
					}
					t.add(st.eval(call.Args[0]))
				}
				return t
			case "make", "new", "delete", "clear":
				return t
			default:
				for _, a := range call.Args {
					t.add(st.eval(a))
				}
				return t
			}
		}
	}
	fn := calleeOf(st.pkg, call)
	if fn != nil {
		if desc, ok := nondetSources[funcKey(fn)]; ok {
			return srcTaint(desc)
		}
		if sanctionedDerivation(fn) {
			return t
		}
		if sum, ok := st.e.summaries[funcIDOf(fn)]; ok {
			for src := range sum.ret {
				t.add(srcTaint(src))
			}
			for p := range sum.paramRet {
				if p < len(call.Args) {
					t.add(st.eval(call.Args[p]))
				}
			}
			return t
		}
	}
	// Unknown callee: conservative union of receiver and arguments.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, isIdent := sel.X.(*ast.Ident); isIdent {
			if _, isPkg := st.pkg.Info.ObjectOf(id).(*types.PkgName); !isPkg {
				t.add(st.eval(sel.X))
			}
		} else {
			t.add(st.eval(sel.X))
		}
	}
	for _, a := range call.Args {
		t.add(st.eval(a))
	}
	return t
}

// fieldSink checks a field write against the state sinks: snapshot-stateful
// structs and result-record types. Source taint reports immediately; param
// taint is exported so the caller's call site reports instead.
func (st *funcState) fieldSink(lhs ast.Expr, t taint, emit bool) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := st.pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	named := namedOf(selection.Recv())
	if named == nil {
		return
	}
	var sink string
	switch {
	case st.e.prog.IsStateful(named):
		sink = fmt.Sprintf("simulator state field %s.%s", named.Obj().Name(), sel.Sel.Name)
	case named.Obj().Name() == "Results":
		sink = fmt.Sprintf("results field %s.%s", named.Obj().Name(), sel.Sel.Name)
	default:
		return
	}
	st.sink(lhs.Pos(), sink, t, emit)
}

// callSinks checks a call's arguments against the call-shaped sinks: the
// seeded rng package's constructors/methods, snapshot Encoder methods,
// encoding/binary's Put methods (which fill the records Encoder.Record
// reserves), and any summarized callee that forwards a parameter into a
// sink.
func (st *funcState) callSinks(call *ast.CallExpr, emit bool) {
	fn := calleeOf(st.pkg, call)
	if fn == nil {
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Name() == "rng" {
		for _, arg := range call.Args {
			st.sink(arg.Pos(), fmt.Sprintf("rng seed material (rng.%s)", fn.Name()), st.eval(arg), emit)
		}
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedOf(sig.Recv().Type()); n != nil &&
			n.Obj().Name() == "Encoder" && n.Obj().Pkg() != nil && n.Obj().Pkg().Name() == "snapshot" {
			for _, arg := range call.Args {
				st.sink(arg.Pos(), fmt.Sprintf("snapshot payload (Encoder.%s)", fn.Name()), st.eval(arg), emit)
			}
			return
		}
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "encoding/binary" && strings.HasPrefix(fn.Name(), "Put") && len(call.Args) == 2 {
		st.sink(call.Args[1].Pos(), fmt.Sprintf("snapshot payload (binary.%s)", fn.Name()), st.eval(call.Args[1]), emit)
		return
	}
	if sum, ok := st.e.summaries[funcIDOf(fn)]; ok && len(sum.paramSink) > 0 {
		for i, arg := range call.Args {
			idx := i
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Variadic() && idx >= sig.Params().Len() {
				idx = sig.Params().Len() - 1
			}
			if desc, hit := sum.paramSink[idx]; hit {
				st.sink(arg.Pos(), fmt.Sprintf("%s via %s", desc, fn.Name()), st.eval(arg), emit)
			}
		}
	}
}

// sink records that taint t reached the described sink at pos: source
// taint becomes a finding (when emitting), parameter taint becomes a
// paramSink summary entry so callers report at their call sites.
func (st *funcState) sink(pos token.Pos, desc string, t taint, emit bool) {
	for p := range t.params {
		if _, exists := st.summary.paramSink[p]; !exists {
			st.summary.paramSink[p] = desc
		}
	}
	if emit && len(t.srcs) > 0 {
		st.findings = append(st.findings, Finding{
			Analyzer: "seedflow",
			Pos:      st.pkg.Fset.Position(pos),
			Message: fmt.Sprintf("nondeterministic value (%s) flows into %s; derive it from the spec seed or rng.Stream",
				strings.Join(t.srcList(), ", "), desc),
		})
	}
}
