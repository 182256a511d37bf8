package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotpath statically proves allocation-freedom for the simulator's
// figure kernels. A function marked
//
//	//ivn:hotpath
//	func MaxDwellAbove(...) ... { ... }
//
// has its entire static call-graph closure checked, each function's
// body scanned when the walk first reaches it: any reachable allocation
// site — make/new, growing append,
// slice/map literals, &literal, string concatenation or conversion,
// capturing closure, method value, interface boxing, go statement, map
// write — is reported, as is any call the graph cannot see through
// (dynamic dispatch, or a package outside the module that is not on the
// assumed-allocation-free list: math, math/bits, math/cmplx).
//
// One idiom is exempt by design: append into recycled capacity via
// append(x[:0], ...). Everything else needs either a fix or a reasoned
// //ivn:allow hotpath on the offending line.
//
// This turns alloc_test.go's runtime budgets into compile-time facts:
// the benchmark kernels cannot regress into allocating without a finding
// appearing at the exact site.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "//ivn:hotpath closures are statically allocation-free",
	Run:  runHotpath,
}

// hotpathMarker introduces a hot-path root in a function's doc comment.
const hotpathMarker = "//ivn:hotpath"

// isHotpathRoot reports whether fd's doc comment carries the marker.
func isHotpathRoot(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotpathMarker || strings.HasPrefix(c.Text, hotpathMarker+" ") {
			return true
		}
	}
	return false
}

func runHotpath(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpathRoot(fd) {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			checkHotRoot(pass, funcID(fn))
		}
	}
}

// checkHotRoot walks root's closure over static call edges and reports
// every site that breaks the allocation-freedom proof. Findings are
// deduplicated by position across roots: the first root to reach a site
// reports it.
func checkHotRoot(pass *Pass, root FuncID) {
	prog := pass.Prog
	g := prog.Graph
	if g.Nodes[root] == nil {
		return
	}
	parent := map[FuncID]CallEdge{}
	visited := map[FuncID]bool{root: true}
	queue := []FuncID{root}

	emit := func(pos token.Pos, format string, args ...any) {
		k := posKey(pass.Fset, pos)
		if prog.hotReported[k] {
			return
		}
		prog.hotReported[k] = true
		pass.Reportf(pos, format, args...)
	}

	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		n := g.Nodes[id]
		if n == nil {
			continue
		}
		suffix := ""
		if id != root {
			suffix = " (path: " + chainString(root, id, parent) + ")"
		}
		for _, site := range allocSites(g, n) {
			emit(site.pos, "hot path %s: %s%s", shortID(root), site.what, suffix)
		}
		for _, pos := range n.Dynamic {
			emit(pos, "hot path %s: dynamic call (function value or interface method) cannot be proven allocation-free%s", shortID(root), suffix)
		}
		for _, e := range n.Calls {
			if g.Nodes[e.Callee] == nil {
				if !allocFreeExternPkgs[e.CalleePkg] {
					emit(e.Pos, "hot path %s: calls %s outside the analyzable module (assumed to allocate)%s", shortID(root), shortID(e.Callee), suffix)
				}
				continue
			}
			if !visited[e.Callee] {
				visited[e.Callee] = true
				parent[e.Callee] = e
				queue = append(queue, e.Callee)
			}
		}
	}
}

// chainString renders the call path root → … → id with short names.
func chainString(root, id FuncID, parent map[FuncID]CallEdge) string {
	ids := Chain(root, id, parent)
	parts := make([]string, len(ids))
	for i, x := range ids {
		parts[i] = shortID(x)
	}
	return strings.Join(parts, " → ")
}

// shortID compresses a FuncID's package path to its last element:
// "ivn/internal/core.EnvelopeSeries" → "core.EnvelopeSeries",
// "(*ivn/internal/radio.Array).Lock" → "(*radio.Array).Lock".
func shortID(id FuncID) string {
	s := string(id)
	prefix := ""
	if strings.HasPrefix(s, "(*") {
		prefix, s = "(*", s[2:]
	} else if strings.HasPrefix(s, "(") {
		prefix, s = "(", s[1:]
	}
	if i := strings.LastIndex(s, "/"); i >= 0 {
		s = s[i+1:]
	}
	return prefix + s
}
