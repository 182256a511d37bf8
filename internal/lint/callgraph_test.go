package lint

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a throwaway module for graph and fact tests.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// loadProgram loads relDir of the module at root and builds the
// interprocedural program over it plus the loader's retained imports.
func loadProgram(t *testing.T, root, relDir, importPath string) *Program {
	t.Helper()
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadDir(filepath.Join(root, relDir), importPath)
	if err != nil {
		t.Fatal(err)
	}
	return BuildProgram(pkgs, l.Support())
}

// TestCallGraphCrossPackage pins the property the whole engine rests on:
// a call into another module-local package resolves to an edge whose
// callee node exists (the loader retains the dependency's bodies), even
// though the two packages were type-checked as separate instances.
func TestCallGraphCrossPackage(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module example.com/m\n",
		"a/a.go": `package a

func Leaf(x int) int { return x + 1 }
`,
		"b/b.go": `package b

import "example.com/m/a"

func Calls(x int) int { return a.Leaf(x) }
`,
	})
	prog := loadProgram(t, root, "b", "example.com/m/b")
	caller := prog.Graph.Nodes[FuncID("example.com/m/b.Calls")]
	if caller == nil {
		t.Fatal("caller node missing")
	}
	var edge *CallEdge
	for i := range caller.Calls {
		if caller.Calls[i].Callee == FuncID("example.com/m/a.Leaf") {
			edge = &caller.Calls[i]
		}
	}
	if edge == nil {
		t.Fatalf("no cross-package edge to a.Leaf; edges: %v", caller.Calls)
	}
	if edge.CalleePkg != "example.com/m/a" {
		t.Errorf("CalleePkg = %q", edge.CalleePkg)
	}
	if prog.Graph.Nodes[edge.Callee] == nil {
		t.Error("callee node not retained from the support package")
	}
	callers := prog.Graph.Callers[FuncID("example.com/m/a.Leaf")]
	if len(callers) != 1 || callers[0] != caller.ID {
		t.Errorf("reverse edge = %v", callers)
	}
}

// TestCallGraphMethodValuesAndRecursion distinguishes method calls
// (Calls edges) from method values (Refs), and checks that recursion —
// direct and mutual — neither loses edges nor loops the traversal.
func TestCallGraphMethodValuesAndRecursion(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module example.com/m\n",
		"a/a.go": `package a

type T struct{ n int }

func (t T) M() int { return t.n }

func Ref() func() int {
	var t T
	return t.M
}

func CallsM(t T) int { return t.M() }

func Rec(n int) int {
	if n == 0 {
		return 0
	}
	return Rec(n - 1)
}

func Mut1(n int) int {
	if n == 0 {
		return 0
	}
	return Mut2(n - 1)
}

func Mut2(n int) int { return Mut1(n) }
`,
	})
	prog := loadProgram(t, root, "a", "example.com/m/a")
	g := prog.Graph
	method := FuncID("(example.com/m/a.T).M")

	ref := g.Nodes[FuncID("example.com/m/a.Ref")]
	if ref == nil {
		t.Fatal("Ref node missing")
	}
	for _, e := range ref.Calls {
		if e.Callee == method {
			t.Error("method value recorded as a call edge")
		}
	}
	foundRef := false
	for _, e := range ref.Refs {
		if e.Callee == method {
			foundRef = true
		}
	}
	if !foundRef {
		t.Errorf("method value not in Refs: %v", ref.Refs)
	}

	callsM := g.Nodes[FuncID("example.com/m/a.CallsM")]
	foundCall := false
	for _, e := range callsM.Calls {
		if e.Callee == method {
			foundCall = true
		}
	}
	if !foundCall {
		t.Errorf("method call not in Calls: %v", callsM.Calls)
	}

	rec := FuncID("example.com/m/a.Rec")
	closure, _ := g.Reachable(rec)
	if !closure[rec] || len(closure) != 1 {
		t.Errorf("Rec closure = %v", closure)
	}
	mut1 := FuncID("example.com/m/a.Mut1")
	mut2 := FuncID("example.com/m/a.Mut2")
	closure, parent := g.Reachable(mut1)
	if !closure[mut1] || !closure[mut2] {
		t.Errorf("mutual recursion closure = %v", closure)
	}
	chain := Chain(mut1, mut2, parent)
	if len(chain) != 2 || chain[0] != mut1 || chain[1] != mut2 {
		t.Errorf("chain = %v", chain)
	}
}

// TestFactsFixpoint checks the direct facts and their transitive taints
// through a two-deep helper chain.
func TestFactsFixpoint(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module example.com/m\n",
		"k/k.go": `package k

import (
	"math/rand"
	"time"
)

func clocky() int64 { return time.Now().UnixNano() }

func viaClock() int64 { return clocky() }

func viaClock2() int64 { return viaClock() }

func randy() float64 { return rand.Float64() }

func pure(x int) int { return x * 2 }
`,
	})
	prog := loadProgram(t, root, "k", "example.com/m/k")
	facts := prog.Facts
	ff := func(name string) *FuncFacts {
		t.Helper()
		f := facts.Per[FuncID("example.com/m/k."+name)]
		if f == nil {
			t.Fatalf("no facts for %s", name)
		}
		return f
	}
	if len(ff("clocky").WallClock) != 1 {
		t.Errorf("clocky.WallClock = %v", ff("clocky").WallClock)
	}
	for _, name := range []string{"viaClock", "viaClock2"} {
		if !ff(name).MayReadClock {
			t.Errorf("%s: transitive wall-clock taint missing", name)
		}
	}
	if !ff("randy").MayUseGlobalRand {
		t.Error("randy: global-rand taint missing")
	}
	p := ff("pure")
	if p.MayAlloc || p.MayReadClock || p.MayUseGlobalRand {
		t.Errorf("pure tainted: %+v", p)
	}
}

// TestStaleSuppression checks satellite behavior end to end: an
// //ivn:allow that no longer matches any finding is itself a finding —
// but only when its analyzer actually ran.
func TestStaleSuppression(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module example.com/m\n",
		"s/s.go": `package s

func ok(x float64) float64 {
	//ivn:allow floatcmp historical comparison long since rewritten
	return x + 1
}

func cmp(a, b float64) bool {
	//ivn:allow floatcmp exact comparison is this function's contract
	return a == b
}
`,
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadDir(filepath.Join(root, "s"), "example.com/m/s")
	if err != nil {
		t.Fatal(err)
	}
	findings := BuildProgram(pkgs, l.Support()).Run([]*Analyzer{FloatCmp})
	var stale []Finding
	for _, f := range findings {
		if !strings.Contains(f.Message, "stale suppression") {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		stale = append(stale, f)
	}
	if len(stale) != 1 || stale[0].Line != 4 {
		t.Fatalf("want exactly the line-4 suppression reported stale, got %v", stale)
	}

	// The same package under an analyzer set without floatcmp: the site's
	// liveness is unknowable, so nothing is reported.
	if findings := BuildProgram(pkgs, l.Support()).Run([]*Analyzer{ErrCheck}); len(findings) != 0 {
		t.Errorf("stale reported without its analyzer in the run set: %v", findings)
	}
}

// TestUnitIndexMalformed covers the annotation-grammar errors the fixture
// corpus cannot express inline (the finding lands on the directive's own
// line, where a want marker cannot sit).
func TestUnitIndexMalformed(t *testing.T) {
	src := `package u

var d float64 //ivn:unit parsec

//ivn:unit dB

var detached float64

//ivn:unit q Hz
func noSuchParam(x float64) float64 { return x }

//ivn:unit return W
func noResults() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "u.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	idx := &unitIndex{objects: map[string]string{}, funcs: map[string]*unitSig{}}
	idx.indexFile(fset, f)
	wantSubstrings := []string{
		`unknown unit "parsec"`,
		"attaches to no declaration",
		`names no parameter "q"`,
		"on a function with no results",
	}
	if len(idx.malformed) != len(wantSubstrings) {
		t.Fatalf("want %d malformed findings, got %d: %v", len(wantSubstrings), len(idx.malformed), idx.malformed)
	}
	for _, sub := range wantSubstrings {
		found := false
		for _, m := range idx.malformed {
			if strings.Contains(m.Message, sub) {
				found = true
			}
			if m.Analyzer != "unitcheck" {
				t.Errorf("malformed finding attributed to %q: %s", m.Analyzer, m.Message)
			}
		}
		if !found {
			t.Errorf("no malformed finding with substring %q in %v", sub, idx.malformed)
		}
	}
}
