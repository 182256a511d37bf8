package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// GoroutineHygiene confines concurrency to the sanctioned runners. PR 1
// parallelized the trial loops through one bounded worker pool
// (forEachIndexed, whose launch loop now lives in forEachWorkerN)
// precisely so that determinism, error propagation, and backpressure live
// in a single audited function; a raw `go` statement anywhere else
// reintroduces unbounded, unobserved concurrency.
//
// Checks:
//
//   - a go statement outside a sanctioned runner function (by name:
//     forEachWorkerN, the pool's one launch site; forEachIndexed and
//     ForEachScratchCtx delegate to it) is reported — route the work
//     through the runner, or annotate a deliberate exception;
//   - sync.WaitGroup.Add called *inside* a spawned goroutine races with
//     the corresponding Wait (Wait can return before the Add executes);
//     Add must happen on the spawning side. This is checked everywhere,
//     including inside sanctioned runners.
var GoroutineHygiene = &Analyzer{
	Name: "goroutinehygiene",
	Doc:  "goroutines only in sanctioned runners; WaitGroup.Add before spawn",
	Run:  runGoroutineHygiene,
}

// sanctionedRunners lists function names allowed to launch goroutines
// directly. The list is deliberately tiny: concurrency is a subsystem, not
// a convenience.
var sanctionedRunners = map[string]bool{
	"forEachIndexed": true,
	"forEachWorkerN": true,
}

func runGoroutineHygiene(pass *Pass) {
	for _, f := range pass.Files {
		var walk func(n ast.Node, fnName string) // current function-like scope name
		walk = func(n ast.Node, fnName string) {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					walk(n.Body, n.Name.Name)
				}
				return
			case *ast.FuncLit:
				// A literal inherits its enclosing function's sanction:
				// runners launch `go func() {...}()` literals.
				walk(n.Body, fnName)
				return
			case *ast.GoStmt:
				if !sanctionedRunners[fnName] {
					pass.Reportf(n.Pos(), "goroutine launched outside a sanctioned runner (%s); use the bounded worker pool or annotate a deliberate exception", runnerNames())
				}
				checkAddInsideGoroutine(pass, n)
				walk(n.Call, fnName)
				return
			}
			if n == nil {
				return
			}
			ast.Inspect(n, func(c ast.Node) bool {
				if c == n {
					return true
				}
				switch c.(type) {
				case *ast.FuncDecl, *ast.FuncLit, *ast.GoStmt:
					walk(c, fnName)
					return false
				}
				return true
			})
		}
		walk(f, "")
	}
}

// runnerNames formats the sanctioned runner list for messages, sorted so
// diagnostics are reproducible.
func runnerNames() string {
	names := make([]string, 0, len(sanctionedRunners))
	for n := range sanctionedRunners {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// checkAddInsideGoroutine reports sync.WaitGroup.Add calls inside the body
// of the goroutine a go statement spawns.
func checkAddInsideGoroutine(pass *Pass, g *ast.GoStmt) {
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Add" {
			return true
		}
		if recv, ok := pass.Info.Selections[sel]; ok && isWaitGroup(recv.Recv()) {
			pass.Reportf(call.Pos(), "sync.WaitGroup.Add inside the spawned goroutine races with Wait; call Add before the go statement")
		}
		return true
	})
}

// isWaitGroup reports whether t is sync.WaitGroup or *sync.WaitGroup.
func isWaitGroup(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
