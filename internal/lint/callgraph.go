package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// FuncID canonically identifies a function or method across every package
// instance the loader produces: types.Func.FullName(), e.g.
// "ivn/internal/em.SetDepth" or "(ivn/internal/em.Path).Amplitude". The
// same source file can be type-checked more than once (a directory loaded
// for analysis and again as a dependency of another package), yielding
// distinct *types.Func objects; FullName strings bridge the instances, so
// cross-package call edges resolve no matter which instance a call site's
// type info came from. A method of an instantiated generic type is named
// by its declaration ("(*p.List[T]).Push", not "(*p.List[int]).Push"),
// and a package's second and later init functions carry their ordinal
// ("p.init#2"), since every init shares one FullName.
type FuncID string

// funcID returns fn's FuncID, canonicalized to its generic declaration.
func funcID(fn *types.Func) FuncID {
	return FuncID(fn.Origin().FullName())
}

// CallEdge is one static call site: caller invokes callee at pos. Callee
// may name a function outside the graph (stdlib, or a package not in this
// run); Nodes[Callee] is nil in that case and the callee's package path
// is preserved in CalleePkg for the external-assumption tables.
type CallEdge struct {
	Caller    FuncID
	Callee    FuncID
	CalleePkg string
	Pos       token.Pos
}

// Node is one declared function with a body, plus everything its body can
// invoke. Function literals nested in the body are folded into the
// declaring function's node: a literal's calls and allocation sites are
// attributed to the encloser, which over-approximates (the literal might
// never run) but never misses behavior — the right direction for every
// fact this engine feeds.
type Node struct {
	ID   FuncID
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Test marks a function declared in a _test.go file.
	Test bool

	// Calls lists the statically resolved call sites in source order.
	Calls []CallEdge
	// Dynamic lists call sites that cannot be resolved to a declaration:
	// calls through function-typed values and interface method calls.
	Dynamic []token.Pos
	// Refs lists functions referenced as values rather than called
	// (method values, functions passed as arguments): possible indirect
	// targets the graph records without treating them as calls.
	Refs []CallEdge
}

// CallGraph is the module-wide static call graph over every package of a
// run (analyzed packages plus the loader's retained dependency packages).
type CallGraph struct {
	// Nodes maps each declared function to its node.
	Nodes map[FuncID]*Node
	// Callers holds the reverse edges: for each callee, the IDs of nodes
	// holding a static call to it. Deduplicated, sorted.
	Callers map[FuncID][]FuncID
}

// buildCallGraph constructs the graph from the given packages. Packages
// must already be deduplicated by import path (each function declared
// exactly once across the set).
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Nodes:   map[FuncID]*Node{},
		Callers: map[FuncID][]FuncID{},
	}
	for _, pkg := range pkgs {
		inits := 0
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				id := funcID(fn)
				if fd.Recv == nil && fd.Name.Name == "init" {
					if inits++; inits > 1 {
						id = FuncID(fmt.Sprintf("%s#%d", id, inits))
					}
				}
				if _, dup := g.Nodes[id]; dup {
					continue // shadowed duplicate instance; first wins
				}
				n := &Node{ID: id, Fn: fn, Decl: fd, Pkg: pkg, Test: pkg.IsTest[f]}
				collectCalls(pkg.Info, fd, n)
				g.Nodes[id] = n
			}
		}
	}
	seen := map[FuncID]map[FuncID]bool{}
	for id, n := range g.Nodes {
		for _, e := range n.Calls {
			if seen[e.Callee] == nil {
				seen[e.Callee] = map[FuncID]bool{}
			}
			if !seen[e.Callee][id] {
				seen[e.Callee][id] = true
				g.Callers[e.Callee] = append(g.Callers[e.Callee], id)
			}
		}
	}
	for callee := range g.Callers {
		sort.Slice(g.Callers[callee], func(i, j int) bool {
			return g.Callers[callee][i] < g.Callers[callee][j]
		})
	}
	return g
}

// collectCalls walks fd's body (function literals included) recording
// static calls, dynamic calls, and value references into n.
func collectCalls(info *types.Info, fd *ast.FuncDecl, n *Node) {
	// Identifiers consumed as a call's Fun are calls, not references.
	callFunIdents := map[*ast.Ident]bool{}
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			callFunIdents[fun] = true
		case *ast.SelectorExpr:
			callFunIdents[fun.Sel] = true
		}
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion, not a call
		}
		fn := calleeFunc(info, call)
		switch {
		case fn == nil:
			// A builtin (make, append, panic, ...) or a call through a
			// function-typed value. Builtins are the alloc scanner's
			// concern; everything else is a dynamic call.
			if !isBuiltinCall(info, call) {
				n.Dynamic = append(n.Dynamic, call.Pos())
			}
		case interfaceMethod(fn):
			n.Dynamic = append(n.Dynamic, call.Pos())
		default:
			n.Calls = append(n.Calls, CallEdge{
				Caller:    n.ID,
				Callee:    funcID(fn),
				CalleePkg: funcPkgPath(fn),
				Pos:       call.Pos(),
			})
		}
		return true
	})
	// Second pass: function values referenced outside call position.
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok || callFunIdents[id] {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok || interfaceMethod(fn) {
			return true
		}
		n.Refs = append(n.Refs, CallEdge{
			Caller:    n.ID,
			Callee:    funcID(fn),
			CalleePkg: funcPkgPath(fn),
			Pos:       id.Pos(),
		})
		return true
	})
}

// interfaceMethod reports whether fn is declared on an interface type —
// a call through it dispatches dynamically.
func interfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// funcPkgPath returns fn's package path, or "" for universe-scope objects.
func funcPkgPath(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isBuiltinCall reports whether call invokes a language builtin.
func isBuiltinCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, builtin := info.Uses[id].(*types.Builtin)
	return builtin
}

// Reachable walks the static call edges and function-value references
// from roots and returns every node in their closure (roots included),
// with a parent edge map for diagnostics: parent[id] is the edge through
// which id was first reached, in a deterministic (source-order BFS)
// traversal. A referenced function counts as reachable because the value
// may be called.
func (g *CallGraph) Reachable(roots ...FuncID) (closure map[FuncID]bool, parent map[FuncID]CallEdge) {
	closure = map[FuncID]bool{}
	parent = map[FuncID]CallEdge{}
	var queue []FuncID
	for _, root := range roots {
		if g.Nodes[root] != nil && !closure[root] {
			closure[root] = true
			queue = append(queue, root)
		}
	}
	for len(queue) > 0 {
		n := g.Nodes[queue[0]]
		queue = queue[1:]
		for _, edges := range [][]CallEdge{n.Calls, n.Refs} {
			for _, e := range edges {
				if g.Nodes[e.Callee] == nil || closure[e.Callee] {
					continue
				}
				closure[e.Callee] = true
				parent[e.Callee] = e
				queue = append(queue, e.Callee)
			}
		}
	}
	return closure, parent
}

// Chain reconstructs the call path root → ... → id using the parent map
// from Reachable, as a slice of FuncIDs starting at root.
func Chain(root, id FuncID, parent map[FuncID]CallEdge) []FuncID {
	var rev []FuncID
	for cur := id; cur != root; {
		rev = append(rev, cur)
		e, ok := parent[cur]
		if !ok {
			break
		}
		cur = e.Caller
	}
	rev = append(rev, root)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
