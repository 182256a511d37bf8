package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Unreached reports dead code: every function declared outside a test
// file that no program path reaches. A function is reached when a static
// call or a function-value reference leads to it from an entry point:
//
//   - any main or init function;
//   - a package-level variable initializer;
//   - the exported API of the root package (Program.APIRoot): its
//     exported functions and the exported methods of its exported types;
//   - a method that can satisfy an interface: a module type's method that
//     the type contributes to implementing an interface in view, whose
//     calls the graph records only as dynamic;
//   - the body of an annotated function.
//
// The annotation sits on the function's func line or the line directly
// above:
//
//	//ivn:allow unreached <reason>
//
// It also silences the function's own finding; once a
// program path reaches the function, the suppression goes stale and is
// reported. Calls from _test.go files do not count: a function that only
// tests call is dead to the program. The verdict needs every caller in
// view, so the check runs only when the analyzed packages are the whole
// program.
var Unreached = &Analyzer{
	Name:         unreachedName,
	Doc:          "every non-test function is reached from a program entry point",
	SkipTests:    true,
	WholeProgram: true,
	Run:          runUnreached,
}

// unreachedName is Unreached's name. The closure's annotation check
// spells it out: reading Unreached.Name there would make the variable's
// initializer refer to itself.
const unreachedName = "unreached"

func runUnreached(pass *Pass) {
	reached := pass.Prog.reachedFuncs()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || (fd.Recv == nil && fd.Name.Name == "init") {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok || reached[funcID(fn)] {
				continue
			}
			pass.Reportf(fd.Pos(), "%s is reached from no main, init, package-level initializer, root-package API or interface method; delete it, or annotate it //ivn:allow unreached <reason>", shortID(funcID(fn)))
		}
	}
}

// reachedFuncs returns the closure of the program's entry points,
// computed once per run. It reads the //ivn:allow sites Run parsed.
func (p *Program) reachedFuncs() map[FuncID]bool {
	if p.reached != nil {
		return p.reached
	}
	g := p.Graph
	var roots []FuncID
	all := append(append([]*Package{}, p.Packages...), p.Support...)
	for _, pkg := range all {
		for _, f := range pkg.Files {
			if pkg.IsTest[f] {
				continue
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.GenDecl:
					if decl.Tok == token.VAR {
						roots = append(roots, referencedFuncs(pkg.Info, decl)...)
					}
				case *ast.FuncDecl:
					fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
					if !ok || !p.allowsUnreached(pkg.Fset.Position(decl.Pos())) {
						continue
					}
					if n := g.Nodes[funcID(fn)]; n != nil {
						for _, e := range n.Calls {
							roots = append(roots, e.Callee)
						}
						for _, e := range n.Refs {
							roots = append(roots, e.Callee)
						}
					}
				}
			}
		}
	}
	for _, id := range sortedNodeIDs(g) {
		if n := g.Nodes[id]; !n.Test && p.entryPoint(n) {
			roots = append(roots, id)
		}
	}
	roots = append(roots, interfaceSatisfiers(all)...)
	p.reached, _ = g.Reachable(roots...)
	return p.reached
}

// entryPoint reports whether n is a main, an init, or part of the root
// package's exported API.
func (p *Program) entryPoint(n *Node) bool {
	recv := n.Fn.Type().(*types.Signature).Recv()
	if recv == nil && (n.Fn.Name() == "init" || n.Fn.Name() == "main" && n.Pkg.Types.Name() == "main") {
		return true
	}
	if p.APIRoot == "" || n.Pkg.Path != p.APIRoot || !n.Fn.Exported() {
		return false
	}
	if recv == nil {
		return true
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Exported()
}

// allowsUnreached reports whether an //ivn:allow unreached site covers
// pos: one on its line or the line directly above.
func (p *Program) allowsUnreached(pos token.Position) bool {
	for _, s := range p.allowed[lineKey{pos.Filename, pos.Line}] {
		if s.analyzer == unreachedName {
			return true
		}
	}
	return false
}

// referencedFuncs lists the functions a declaration calls or references,
// function literals included.
func referencedFuncs(info *types.Info, decl ast.Node) []FuncID {
	var ids []FuncID
	ast.Inspect(decl, func(node ast.Node) bool {
		if id, ok := node.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok && !interfaceMethod(fn) {
				ids = append(ids, funcID(fn))
			}
		}
		return true
	})
	return ids
}

// interfaceSatisfiers returns, sorted, the methods through which a
// module type implements an interface in view: one declared at package
// scope in the program or in anything it imports, or written as a type
// literal in the program's code. An interface call can dispatch to any
// of them, so each counts as reached. Signatures compare as fully
// qualified strings, which bridges the loader's separate instances of
// one package. A generic type is matched on method names alone.
func interfaceSatisfiers(pkgs []*Package) []FuncID {
	var ifaces []*types.Interface
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if ok && it.NumMethods() > 0 && !seenIface[it] {
			seenIface[it] = true
			ifaces = append(ifaces, it)
		}
	}
	seenPkg := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if seenPkg[tp] {
			return
		}
		seenPkg[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
	}

	var ids []FuncID
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || pkg.IsTest[fileOf(pkg, tn.Pos())] {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			generic := named.TypeParams().Len() > 0
			ms := types.NewMethodSet(types.NewPointer(named))
			methods := map[string]*types.Selection{}
			for i := 0; i < ms.Len(); i++ {
				methods[ms.At(i).Obj().Name()] = ms.At(i)
			}
			for _, it := range ifaces {
				if !satisfies(methods, it, generic) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					fn := methods[it.Method(i).Name()].Obj().(*types.Func)
					if !interfaceMethod(fn) {
						ids = append(ids, funcID(fn))
					}
				}
			}
		}
	}
	// The interfaces come partly from map iteration (Info.Types); the
	// sort keeps the closure's traversal order a function of the code.
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// satisfies reports whether a method set, given by name, implements it.
func satisfies(methods map[string]*types.Selection, it *types.Interface, namesOnly bool) bool {
	for i := 0; i < it.NumMethods(); i++ {
		want := it.Method(i)
		sel, ok := methods[want.Name()]
		if !ok {
			return false
		}
		if !namesOnly && sigKey(sel.Obj().Type()) != sigKey(want.Type()) {
			return false
		}
	}
	return true
}

// sigKey renders a signature's parameter and result types, without
// names or receiver, as fully qualified type strings.
func sigKey(t types.Type) string {
	sig := t.(*types.Signature)
	var b strings.Builder
	for i := 0; i < sig.Params().Len(); i++ {
		b.WriteString(types.TypeString(sig.Params().At(i).Type(), nil))
		b.WriteByte(',')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	b.WriteString("->")
	for i := 0; i < sig.Results().Len(); i++ {
		b.WriteString(types.TypeString(sig.Results().At(i).Type(), nil))
		b.WriteByte(',')
	}
	return b.String()
}

// fileOf returns the file of pkg that contains pos, or nil.
func fileOf(pkg *Package, pos token.Pos) *ast.File {
	for _, f := range pkg.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}
