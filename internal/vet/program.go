package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sync"
)

// This file is the dataflow substrate shared by the interprocedural
// analyzers (seedflow, snapshotfields, goroutinectx, atomicmix). It builds
// a Program over every loaded package: a call graph keyed by stable
// function IDs (object identity does not survive per-package type-checking
// with independent importers, strings do), per-function facts computed in
// one AST pass each, and the registry of snapshot-stateful types. Facts
// are computed once, in parallel across packages; analyzers and the taint
// engine then propagate them over the call graph to a fixpoint.

// Program is the repo-wide view the interprocedural analyzers run on.
type Program struct {
	Pkgs []*Package

	// Funcs maps stable function IDs ("pkg/path.Recv.Name") to their
	// declarations. Only functions with bodies in the loaded packages
	// appear; calls that resolve elsewhere are dead ends in the graph.
	Funcs map[string]*FuncNode

	// Stateful maps type IDs ("pkg/path.Name") to every struct type that
	// participates in the snapshot protocol (a SaveState-shaped method
	// taking *snapshot.Encoder and a RestoreState-shaped method taking
	// *snapshot.Decoder, exported or not).
	Stateful map[string]*StatefulType

	// mutated records struct fields written outside constructor functions,
	// keyed "typeID.field". Fields absent from this map are assigned at
	// most during construction, so an identically configured rebuild
	// already reproduces them and the snapshot codec may skip them.
	mutated map[string]bool
}

// FuncNode is one function or method declaration plus its per-function
// facts.
type FuncNode struct {
	ID   string
	Pkg  *Package
	Decl *ast.FuncDecl
	Obj  *types.Func

	// Callees lists the statically resolvable calls in the body, in
	// source order, deduplicated. Interface dispatch and calls through
	// function values are not resolved (documented approximation).
	Callees []string

	// FieldRefs collects, per named struct type, the fields the body
	// mentions through any selector (reads and writes alike).
	FieldRefs map[string]map[string]bool

	// HasCancel reports whether the body (or signature) touches a
	// cancellation primitive: a context.Context value, a channel
	// operation, a select statement, or a sync.WaitGroup Done/Wait.
	HasCancel bool
}

// StatefulType is one struct participating in the snapshot protocol.
type StatefulType struct {
	ID    string
	Pkg   *Package
	Named *types.Named
	// Save and Restore are the codec methods' function IDs.
	Save    string
	Restore string
	// FieldPos locates each field's declaration for findings.
	FieldPos map[string]token.Pos
	// FieldOrder preserves declaration order for deterministic reports.
	FieldOrder []string
}

// BuildProgram computes the substrate over the loaded packages. Per-package
// fact extraction runs across a bounded worker pool; the merge is
// deterministic (package order, then file order).
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:     pkgs,
		Funcs:    map[string]*FuncNode{},
		Stateful: map[string]*StatefulType{},
		mutated:  map[string]bool{},
	}

	type pkgFacts struct {
		funcs   []*FuncNode
		mutated map[string]bool
	}
	facts := make([]pkgFacts, len(pkgs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxParallel())
	for i, p := range pkgs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, p *Package) {
			defer wg.Done()
			defer func() { <-sem }()
			facts[i] = pkgFacts{funcs: packageFuncs(p), mutated: packageMutations(p)}
		}(i, p)
	}
	wg.Wait()

	for _, f := range facts {
		for _, fn := range f.funcs {
			prog.Funcs[fn.ID] = fn
		}
		for k, v := range f.mutated {
			if v {
				prog.mutated[k] = true
			}
		}
	}
	for _, p := range pkgs {
		collectStateful(prog, p)
	}
	return prog
}

// maxParallel bounds the worker pools used for fact extraction and
// analyzer execution.
func maxParallel() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// MutatedOutsideConstructor reports whether field f of the identified type
// is assigned anywhere outside that type's constructor functions.
func (prog *Program) MutatedOutsideConstructor(typeID, field string) bool {
	return prog.mutated[typeID+"."+field]
}

// ReachableFieldRefs unions the receiver-type field references of the
// function identified by id and everything statically reachable from it.
// The traversal is memo-free but bounded by the visited set, so recursion
// in the call graph terminates.
func (prog *Program) ReachableFieldRefs(id, typeID string) map[string]bool {
	out := map[string]bool{}
	seen := map[string]bool{}
	var walk func(string)
	walk = func(fid string) {
		if seen[fid] {
			return
		}
		seen[fid] = true
		fn := prog.Funcs[fid]
		if fn == nil {
			return
		}
		for f := range fn.FieldRefs[typeID] {
			out[f] = true
		}
		for _, c := range fn.Callees {
			walk(c)
		}
	}
	walk(id)
	return out
}

// CancelReachable reports whether a cancellation primitive is reachable
// from the function identified by id through the static call graph.
func (prog *Program) CancelReachable(id string) bool {
	seen := map[string]bool{}
	var walk func(string) bool
	walk = func(fid string) bool {
		if seen[fid] {
			return false
		}
		seen[fid] = true
		fn := prog.Funcs[fid]
		if fn == nil {
			return false
		}
		if fn.HasCancel {
			return true
		}
		for _, c := range fn.Callees {
			if walk(c) {
				return true
			}
		}
		return false
	}
	return walk(id)
}

// funcIDOf renders the stable ID of a function object:
// "pkg/path.Name" for functions, "pkg/path.Recv.Name" for methods.
// Generic instantiations collapse onto their origin.
func funcIDOf(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	fn = fn.Origin()
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if n := namedOf(sig.Recv().Type()); n != nil {
			return path + "." + n.Obj().Name() + "." + fn.Name()
		}
		return path + "." + sig.Recv().Type().String() + "." + fn.Name()
	}
	return path + "." + fn.Name()
}

// namedOf unwraps pointers and generic instantiations down to the named
// type, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

// typeIDOf renders the stable ID of a named type.
func typeIDOf(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// calleeOf statically resolves a call expression to its function object:
// direct calls, package-qualified calls, and method calls with a concrete
// receiver. Interface dispatch, builtins, conversions, and calls through
// function values return nil.
func calleeOf(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// funcKey renders "pkgpath.Name" for package-level functions — the lookup
// key for the nondeterminism-source and laundering tables.
func funcKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return ""
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// packageFuncs extracts one FuncNode per declared function with a body.
func packageFuncs(p *Package) []*FuncNode {
	var out []*FuncNode
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := p.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			node := &FuncNode{
				ID:        funcIDOf(obj),
				Pkg:       p,
				Decl:      fd,
				Obj:       obj,
				FieldRefs: map[string]map[string]bool{},
			}
			node.HasCancel = signatureHasContext(obj)
			seen := map[string]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					if fn := calleeOf(p, x); fn != nil {
						id := funcIDOf(fn)
						if !seen[id] {
							seen[id] = true
							node.Callees = append(node.Callees, id)
						}
						if isWaitGroupSync(fn) {
							node.HasCancel = true
						}
					}
				case *ast.SelectorExpr:
					if sel, ok := p.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
						if n := namedOf(sel.Recv()); n != nil {
							tid := typeIDOf(n)
							if node.FieldRefs[tid] == nil {
								node.FieldRefs[tid] = map[string]bool{}
							}
							node.FieldRefs[tid][sel.Obj().Name()] = true
						}
					}
				case *ast.UnaryExpr:
					if x.Op == token.ARROW {
						node.HasCancel = true
					}
				case *ast.SendStmt, *ast.SelectStmt:
					node.HasCancel = true
				case *ast.Ident:
					if isContextValue(p, x) {
						node.HasCancel = true
					}
				}
				return true
			})
			out = append(out, node)
		}
	}
	return out
}

// signatureHasContext reports whether any parameter (or the receiver) is a
// context.Context.
func signatureHasContext(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Name() == "Context" &&
		n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "context"
}

// isContextValue reports whether ident denotes a value of type
// context.Context.
func isContextValue(p *Package, ident *ast.Ident) bool {
	obj := p.Info.ObjectOf(ident)
	if obj == nil {
		return false
	}
	if _, ok := obj.(*types.Var); !ok {
		return false
	}
	return isContextType(obj.Type())
}

// isWaitGroupSync reports whether fn is (*sync.WaitGroup).Done or .Wait.
func isWaitGroupSync(fn *types.Func) bool {
	if fn.Name() != "Done" && fn.Name() != "Wait" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	n := namedOf(sig.Recv().Type())
	return n != nil && n.Obj().Name() == "WaitGroup" &&
		n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync"
}

// packageMutations records fields assigned outside constructors, keyed
// "typeID.field". Every field selection appearing anywhere in an
// assignment target or inc/dec operand counts: `m.stats.Accesses++` marks
// both Stats.Accesses and the enclosing type's stats field. Assignments
// within a constructor of the field's owner type (a package-level function
// whose results include the type) are construction, not mutation.
func packageMutations(p *Package) map[string]bool {
	out := map[string]bool{}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ctorOf := constructedTypes(p, fd)
			// Only the lvalue spine mutates: in c.stamp[set*p.ways+way],
			// the stamp field is written but p.ways (an index
			// subexpression) is merely read.
			var mark func(e ast.Expr)
			mark = func(e ast.Expr) {
				switch x := e.(type) {
				case *ast.ParenExpr:
					mark(x.X)
				case *ast.StarExpr:
					mark(x.X)
				case *ast.IndexExpr:
					mark(x.X)
				case *ast.SliceExpr:
					mark(x.X)
				case *ast.SelectorExpr:
					if s, ok := p.Info.Selections[x]; ok && s.Kind() == types.FieldVal {
						if n := namedOf(s.Recv()); n != nil && !ctorOf[typeIDOf(n)] {
							out[typeIDOf(n)+"."+s.Obj().Name()] = true
						}
					}
					mark(x.X)
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range s.Lhs {
						mark(lhs)
					}
				case *ast.IncDecStmt:
					mark(s.X)
				}
				return true
			})
		}
	}
	return out
}

// constructedTypes returns the type IDs a package-level function
// constructs: every named type among its results, plus every named struct
// it builds with a composite literal (constructors returning an interface,
// like trace.NewGenerator, still initialize the concrete struct by
// assignment). Methods construct nothing.
func constructedTypes(p *Package, fd *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	if fd.Recv != nil {
		return out
	}
	obj, _ := p.Info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return out
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return out
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if n := namedOf(sig.Results().At(i).Type()); n != nil {
			out[typeIDOf(n)] = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if cl, ok := n.(*ast.CompositeLit); ok {
			if named := namedOf(p.Info.TypeOf(cl)); named != nil {
				if _, isStruct := named.Underlying().(*types.Struct); isStruct {
					out[typeIDOf(named)] = true
				}
			}
		}
		return true
	})
	return out
}

// isCodecPointer reports whether t is *P for a named type P called name
// (Encoder/Decoder) declared in a package named "snapshot". Matching by
// package name rather than import path lets the fixture module supply its
// own codec shim.
func isCodecPointer(t types.Type, name string) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n := namedOf(ptr.Elem())
	return n != nil && n.Obj().Name() == name &&
		n.Obj().Pkg() != nil && n.Obj().Pkg().Name() == "snapshot"
}

// codecMethodKind classifies fn as a snapshot save method (any parameter
// is *snapshot.Encoder and the name is SaveState-shaped) or restore method
// (*snapshot.Decoder, RestoreState-shaped). Case-insensitive on the first
// rune so the unexported per-component codecs (saveState/restoreState in
// baseline's policies and cachesim's cores) are covered too.
func codecMethodKind(fn *types.Func) (save, restore bool) {
	name := fn.Name()
	isSave := name == "SaveState" || name == "saveState"
	isRestore := name == "RestoreState" || name == "restoreState"
	if !isSave && !isRestore {
		return false, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false, false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		pt := sig.Params().At(i).Type()
		if isSave && isCodecPointer(pt, "Encoder") {
			return true, false
		}
		if isRestore && isCodecPointer(pt, "Decoder") {
			return false, true
		}
	}
	return false, false
}

// collectStateful registers every named struct type of p that declares
// both snapshot codec methods.
func collectStateful(prog *Program, p *Package) {
	if p.Types == nil {
		return
	}
	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, ok := named.Underlying().(*types.Struct); !ok {
			continue
		}
		var saveID, restoreID string
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			save, restore := codecMethodKind(m)
			if save {
				saveID = funcIDOf(m)
			}
			if restore {
				restoreID = funcIDOf(m)
			}
		}
		if saveID == "" || restoreID == "" {
			continue
		}
		st := &StatefulType{
			ID:       typeIDOf(named),
			Pkg:      p,
			Named:    named,
			Save:     saveID,
			Restore:  restoreID,
			FieldPos: map[string]token.Pos{},
		}
		fillFieldPositions(p, tn, st)
		prog.Stateful[st.ID] = st
	}
}

// fillFieldPositions locates each field's declaration in the AST so
// findings can point at the field itself.
func fillFieldPositions(p *Package, tn *types.TypeName, st *StatefulType) {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || p.Info.Defs[ts.Name] != tn {
					continue
				}
				stype, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, f := range stype.Fields.List {
					for _, name := range f.Names {
						st.FieldPos[name.Name] = name.Pos()
						st.FieldOrder = append(st.FieldOrder, name.Name)
					}
				}
			}
		}
	}
}

// IsStateful reports whether the named type participates in the snapshot
// protocol — either registered in this program or, for imported types,
// judged by its declared methods.
func (prog *Program) IsStateful(n *types.Named) bool {
	if n == nil {
		return false
	}
	if _, ok := prog.Stateful[typeIDOf(n)]; ok {
		return true
	}
	var save, restore bool
	for i := 0; i < n.NumMethods(); i++ {
		s, r := codecMethodKind(n.Method(i))
		save = save || s
		restore = restore || r
	}
	return save && restore
}
