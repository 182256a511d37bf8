package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file reads the one per-function fact the hotpath analyzer checks
// off a function body: its heap-allocation sites.

// allocSite is one allocation site in a body: a position plus a
// human-readable description used verbatim in findings.
type allocSite struct {
	pos  token.Pos
	what string
}

// allocFreeExternPkgs are packages outside the graph whose functions are
// assumed allocation-free. Everything else external is conservatively
// treated as a potential allocator.
var allocFreeExternPkgs = map[string]bool{
	"math":       true,
	"math/bits":  true,
	"math/cmplx": true,
}

// allocSites lists the direct heap-allocation sites in n's body, in
// source order: make/new, growing append, slice/map composite literals,
// &literal, string concatenation and conversions, capturing closures,
// method values, interface boxing of non-pointer values, go statements,
// and map writes. The `append(x[:0], ...)` reuse idiom is exempt
// (growth amortizes into recycled capacity), as are constants boxed
// into interfaces (the compiler materializes those statically).
func allocSites(g *CallGraph, n *Node) []allocSite {
	info := n.Pkg.Info
	var sites []allocSite
	report := func(pos token.Pos, format string, args ...any) {
		sites = append(sites, allocSite{pos, fmt.Sprintf(format, args...)})
	}

	// Selectors and identifiers consumed as a call's Fun: method CALLS,
	// not method VALUES.
	callFunSels := map[*ast.SelectorExpr]bool{}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				callFunSels[sel] = true
			}
		}
		return true
	})

	// checkBoxing is suppressed for callees that hotpath will already
	// flag wholesale (dynamic dispatch, unprovable externals): one
	// finding per site is enough, and it keeps every finding for a bad
	// call on the call's own line where a single //ivn:allow covers it.
	boxingWorthChecking := func(fn *types.Func) bool {
		if fn == nil || interfaceMethod(fn) {
			return false
		}
		if _, inGraph := g.Nodes[funcID(fn)]; inGraph {
			return true
		}
		return allocFreeExternPkgs[funcPkgPath(fn)]
	}

	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			if tv, ok := info.Types[node.Fun]; ok && tv.IsType() {
				if conversionAllocates(info, node) {
					report(node.Pos(), "conversion to %s allocates", typeLabel(info.TypeOf(node.Fun)))
				}
				return true
			}
			if id, ok := ast.Unparen(node.Fun).(*ast.Ident); ok {
				if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					switch b.Name() {
					case "make":
						report(node.Pos(), "make(%s) allocates", typeExprString(node.Args[0]))
					case "new":
						report(node.Pos(), "new(%s) allocates", typeExprString(node.Args[0]))
					case "append":
						if !isReuseAppend(info, node) {
							report(node.Pos(), "append may grow its backing array (reuse recycled capacity via append(x[:0], ...) or annotate)")
						}
					}
					return true
				}
			}
			if fn := calleeFunc(info, node); boxingWorthChecking(fn) {
				checkCallBoxing(info, node, fn, report)
			}
		case *ast.GoStmt:
			report(node.Pos(), "go statement allocates a goroutine")
		case *ast.CompositeLit:
			switch info.TypeOf(node).Underlying().(type) {
			case *types.Slice:
				report(node.Pos(), "slice literal allocates")
			case *types.Map:
				report(node.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				if _, ok := ast.Unparen(node.X).(*ast.CompositeLit); ok {
					report(node.Pos(), "&composite literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if node.Op == token.ADD && isStringType(info.TypeOf(node)) && constValue(info, node) == nil {
				report(node.Pos(), "string concatenation allocates")
			}
		case *ast.FuncLit:
			if captured := capturedVars(info, node); len(captured) > 0 {
				report(node.Pos(), "closure captures %s; allocates", strings.Join(captured, ", "))
			}
		case *ast.SelectorExpr:
			if callFunSels[node] {
				return true
			}
			if sel, ok := info.Selections[node]; ok && sel.Kind() == types.MethodVal {
				report(node.Pos(), "method value %s allocates a bound closure", node.Sel.Name)
			}
		case *ast.AssignStmt:
			checkAssignBoxing(info, node, report)
			for _, l := range node.Lhs {
				if ix, ok := l.(*ast.IndexExpr); ok {
					if _, isMap := info.TypeOf(ix.X).Underlying().(*types.Map); isMap {
						report(node.Pos(), "map write may allocate")
					}
				}
			}
		case *ast.ReturnStmt:
			checkReturnBoxing(info, n, node, report)
		}
		return true
	})
	return sites
}

// constValue returns the constant value of e, or nil if e is not
// constant-folded.
func constValue(info *types.Info, e ast.Expr) interface{} {
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return tv.Value
	}
	return nil
}

// isReuseAppend recognizes the amortized reuse idiom append(x[:0], ...):
// appending into a zero-length reslice of recycled capacity.
func isReuseAppend(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	sl, ok := ast.Unparen(call.Args[0]).(*ast.SliceExpr)
	if !ok || sl.Slice3 {
		return false
	}
	if sl.Low != nil && !isConstZero(info, sl.Low) {
		return false
	}
	return sl.High != nil && isConstZero(info, sl.High)
}

func isConstZero(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	return tv.Value.String() == "0"
}

// conversionAllocates reports whether a type conversion copies its
// operand to the heap: string ↔ []byte/[]rune round trips, non-string →
// string, and boxing conversions into interface types. Constant operands
// are folded statically and exempt.
func conversionAllocates(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	arg := call.Args[0]
	if constValue(info, arg) != nil {
		return false
	}
	dst := info.TypeOf(call.Fun)
	src := info.TypeOf(arg)
	if dst == nil || src == nil {
		return false
	}
	if types.IsInterface(dst) {
		return boxes(info, arg, dst)
	}
	dstStr, srcStr := isStringType(dst), isStringType(src)
	dstBytes, srcBytes := isByteOrRuneSlice(dst), isByteOrRuneSlice(src)
	return (dstStr && srcBytes) || (dstBytes && srcStr) || (dstStr && !srcStr)
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// capturedVars returns the names of variables a function literal captures
// from its enclosing function, sorted by first use and deduplicated. A
// literal with no captures compiles to a static closure and is
// allocation-free.
func capturedVars(info *types.Info, lit *ast.FuncLit) []string {
	seen := map[string]bool{}
	var out []string
	ast.Inspect(lit.Body, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil {
			return true
		}
		if v.Parent() == v.Pkg().Scope() {
			return true // package-level var: referenced, not captured
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			if !seen[id.Name] {
				seen[id.Name] = true
				out = append(out, id.Name)
			}
		}
		return true
	})
	return out
}

// checkCallBoxing flags non-constant, non-pointer-shaped arguments passed
// to interface-typed parameters.
func checkCallBoxing(info *types.Info, call *ast.CallExpr, fn *types.Func, report func(token.Pos, string, ...any)) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	if call.Ellipsis != token.NoPos {
		return // slice passed through verbatim; no per-element boxing
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if s, ok := sig.Params().At(np - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		}
		if boxes(info, arg, pt) {
			report(arg.Pos(), "argument boxes %s into interface %s; allocates", typeLabel(info.TypeOf(arg)), typeLabel(pt))
		}
	}
}

// checkAssignBoxing flags assignments that box a concrete value into an
// interface-typed destination.
func checkAssignBoxing(info *types.Info, as *ast.AssignStmt, report func(token.Pos, string, ...any)) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		lt := info.TypeOf(as.Lhs[i])
		if boxes(info, as.Rhs[i], lt) {
			report(as.Rhs[i].Pos(), "assignment boxes %s into interface %s; allocates", typeLabel(info.TypeOf(as.Rhs[i])), typeLabel(lt))
		}
	}
}

// checkReturnBoxing flags returns that box a concrete value into an
// interface-typed result.
func checkReturnBoxing(info *types.Info, n *Node, ret *ast.ReturnStmt, report func(token.Pos, string, ...any)) {
	sig, ok := n.Fn.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, res := range ret.Results {
		if i >= sig.Results().Len() {
			break
		}
		rt := sig.Results().At(i).Type()
		if boxes(info, res, rt) {
			report(res.Pos(), "return boxes %s into interface %s; allocates", typeLabel(info.TypeOf(res)), typeLabel(rt))
		}
	}
}

// boxes reports whether storing expr into a destination of type dst heap-
// allocates an interface box: dst is an interface, expr's concrete type
// is not pointer-shaped, and expr is not a constant (constants box to
// static data). Nil values and interface-to-interface moves don't box.
func boxes(info *types.Info, expr ast.Expr, dst types.Type) bool {
	if dst == nil || !types.IsInterface(dst) {
		return false
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Value != nil || tv.IsNil() {
		return false
	}
	src := tv.Type
	if src == nil || types.IsInterface(src) {
		return false
	}
	switch u := src.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: stored directly in the iface word
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}

// typeLabel renders t with bare package names for findings.
func typeLabel(t types.Type) string {
	if t == nil {
		return "?"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// typeExprString renders a type expression for findings without needing
// type information.
func typeExprString(e ast.Expr) string {
	var b strings.Builder
	writeTypeExpr(&b, e)
	return b.String()
}

func writeTypeExpr(b *strings.Builder, e ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
		b.WriteString(e.Name)
	case *ast.ArrayType:
		b.WriteString("[]")
		writeTypeExpr(b, e.Elt)
	case *ast.MapType:
		b.WriteString("map[")
		writeTypeExpr(b, e.Key)
		b.WriteString("]")
		writeTypeExpr(b, e.Value)
	case *ast.StarExpr:
		b.WriteString("*")
		writeTypeExpr(b, e.X)
	case *ast.SelectorExpr:
		writeTypeExpr(b, e.X)
		b.WriteString(".")
		b.WriteString(e.Sel.Name)
	case *ast.ChanType:
		b.WriteString("chan ")
		writeTypeExpr(b, e.Value)
	default:
		b.WriteString("T")
	}
}
