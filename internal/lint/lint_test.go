package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"testing"
)

// repoRoot walks up from the test's working directory to go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test working directory")
		}
		dir = parent
	}
}

// wantRe matches `// want "regexp"` and `// want `+"`regexp`"+` expectation
// comments in fixture sources.
var wantRe = regexp.MustCompile("// want (?:\"(.*)\"|`(.*)`)")

// want is one expectation parsed from a fixture comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// collectWants parses the expectation comments of every file in pkgs.
func collectWants(t *testing.T, pkgs []*Package) []*want {
	t.Helper()
	var wants []*want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, group := range f.Comments {
				for _, c := range group.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("bad want pattern %q: %v", pat, err)
					}
					pos := pkg.Fset.Position(c.Pos())
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// TestFixtures runs each analyzer over its fixture package and diffs the
// reported findings against the `// want` expectations: every expectation
// must be hit, and nothing beyond the expectations may fire (suppressed
// cases in the corpus double as the //ivn:allow coverage).
func TestFixtures(t *testing.T) {
	root := repoRoot(t)
	cases := map[string]*Analyzer{
		"determinism":      Determinism,
		"floatcmp":         FloatCmp,
		"goroutinehygiene": GoroutineHygiene,
		"errcheck":         ErrCheck,
		"unitcheck":        Unitcheck,
		"hotpath":          Hotpath,
		"unreached":        Unreached,
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		an := cases[name]
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(root, "internal", "lint", "testdata", "src", name)
			pkgs, err := loader.LoadDir(dir, "fixture/"+name)
			if err != nil {
				t.Fatalf("load fixture: %v", err)
			}
			prog := BuildProgram(pkgs, nil)
			prog.Whole = true // each fixture is a program of its own
			findings := prog.Run([]*Analyzer{an})
			wants := collectWants(t, pkgs)
			for _, f := range findings {
				if f.Analyzer == "ivnlint" {
					t.Errorf("malformed suppression in fixture: %s", f)
					continue
				}
				hit := false
				for _, w := range wants {
					if w.file == f.File && w.line == f.Line && w.re.MatchString(f.Message) {
						w.matched = true
						hit = true
					}
				}
				if !hit {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
				}
			}
		})
	}
}

// TestSuppressionParsing checks the //ivn:allow comment grammar: coverage
// of the comment's own line and the next, the mandatory reason, and the
// rejection of unknown analyzer names.
func TestSuppressionParsing(t *testing.T) {
	src := `package p

func f() {
	//ivn:allow floatcmp reason one
	_ = 1
	//ivn:allow floatcmp
	_ = 2
	//ivn:allow nosuchanalyzer reason
	_ = 3
	_ = 4 //ivn:allow errcheck trailing reason
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sites, malformed := fileSuppressions(fset, f)
	if len(malformed) != 2 {
		t.Fatalf("want 2 malformed findings (missing reason, unknown analyzer), got %d: %v", len(malformed), malformed)
	}
	for _, m := range malformed {
		if m.Analyzer != "ivnlint" {
			t.Errorf("malformed finding attributed to %q, want ivnlint", m.Analyzer)
		}
	}
	// covers reproduces the application rule: a site covers its own line
	// and the next.
	covers := func(line int, analyzer string) *suppSite {
		for _, s := range sites {
			if s.analyzer == analyzer && (s.line == line || s.line+1 == line) {
				return s
			}
		}
		return nil
	}
	// The valid floatcmp suppression sits on line 4 and covers lines 4-5.
	for _, line := range []int{4, 5} {
		s := covers(line, "floatcmp")
		if s == nil || s.reason != "reason one" {
			t.Errorf("line %d: floatcmp suppression not in effect: %+v", line, s)
		}
	}
	// The trailing errcheck suppression covers its own line (10).
	if covers(10, "errcheck") == nil {
		t.Errorf("line 10: trailing errcheck suppression not in effect")
	}
	if covers(12, "errcheck") != nil {
		t.Errorf("errcheck suppression leaked past its window")
	}
}

// TestExpandPatterns covers the pattern grammar over the real tree.
func TestExpandPatterns(t *testing.T) {
	root := repoRoot(t)
	single, err := ExpandPatterns(root, []string{"./internal/dsp"})
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != 1 || filepath.Base(single[0]) != "dsp" {
		t.Fatalf("single-dir pattern: %v", single)
	}
	all, err := ExpandPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 20 {
		t.Fatalf("recursive pattern found only %d dirs", len(all))
	}
	for _, d := range all {
		if filepath.Base(d) == "testdata" {
			t.Fatalf("testdata not pruned: %v", d)
		}
		rel, _ := filepath.Rel(root, d)
		if rel == fmt.Sprintf("internal%clint%ctestdata", filepath.Separator, filepath.Separator) {
			t.Fatalf("testdata subtree not pruned: %s", rel)
		}
	}
	if _, err := ExpandPatterns(root, []string{"./no/such/dir"}); err == nil {
		t.Fatal("missing directory accepted")
	}
}

// TestRepoIsClean is the enforcement test: the suite over the entire tree
// must report nothing. A regression that reintroduces a violation (or an
// analyzer change that misfires on sanctioned code) fails here, not in a
// later CI stage.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree lint skipped in -short mode")
	}
	root := repoRoot(t)
	dirs, err := ExpandPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	findings, err := LintDirs(root, dirs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestBuildConstraintFiltering pins the loader's //go:build handling: a
// file gated on a non-default tag (race) must be excluded even when its
// declarations would collide with the default-tag twin — the exact shape
// of the repo's race_test.go / norace_test.go pair.
func TestBuildConstraintFiltering(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/tags\n")
	write("a.go", "package tags\n\nconst mode = \"default\"\n")
	write("a_race.go", "//go:build race\n\npackage tags\n\nconst mode = \"race\"\n")
	write("a_other.go", "//go:build someothertag\n\npackage tags\n\nconst other = 1\n")

	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadDir(dir, "example.com/tags")
	if err != nil {
		t.Fatalf("tagged twin not excluded: %v", err)
	}
	if len(pkgs) != 1 || len(pkgs[0].Files) != 1 {
		t.Fatalf("want 1 package with 1 file, got %d packages (%d files)", len(pkgs), len(pkgs[0].Files))
	}
}

// TestDefaultBuildTag covers the tag universe the loader evaluates
// //go:build lines against.
func TestDefaultBuildTag(t *testing.T) {
	for _, tag := range []string{runtime.GOOS, runtime.GOARCH, runtime.Compiler, "go1", "go1.22"} {
		if !defaultBuildTag(tag) {
			t.Errorf("default tag %q not satisfied", tag)
		}
	}
	for _, tag := range []string{"race", "integration", "windows_amd64_cgo"} {
		if tag == runtime.GOOS || tag == runtime.GOARCH {
			continue
		}
		if defaultBuildTag(tag) {
			t.Errorf("non-default tag %q satisfied", tag)
		}
	}
}

// TestUnreachedNeedsWholeModule runs the unreached analyzer over a
// throwaway module. Over the whole module it reports the dead functions
// and a stale annotation, and counts the root package's exported API as
// reached; over part of the module it reports nothing, stale
// annotations included, since callers outside the run are not in view.
func TestUnreachedNeedsWholeModule(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module example.com/m\n",
		"m.go": `package m

import "example.com/m/a"

func API() {
	a.Used()
	a.Reached()
}

type T struct{}

func (T) Method() { a.ViaMethod() }

func unexported() {}
`,
		"a/a.go": `package a

func Used() {}

func ViaMethod() {}

func Dead() {}

//ivn:allow unreached kept for a test that compares against it
func Kept() {}

//ivn:allow unreached stale: the root package's API calls it
func Reached() {}
`,
	})
	lint := func(dirs ...string) []string {
		t.Helper()
		findings, err := LintDirs(root, dirs, []*Analyzer{Unreached})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, f := range findings {
			rel, _ := filepath.Rel(root, f.File)
			got = append(got, fmt.Sprintf("%s:%d %s", filepath.ToSlash(rel), f.Line, f.Analyzer))
		}
		return got
	}
	want := []string{"a/a.go:7 unreached", "a/a.go:12 ivnlint", "m.go:14 unreached"}
	if got := lint(root, filepath.Join(root, "a")); !reflect.DeepEqual(got, want) {
		t.Errorf("whole module: got %q, want %q", got, want)
	}
	for _, dir := range []string{root, filepath.Join(root, "a")} {
		if got := lint(dir); len(got) != 0 {
			t.Errorf("run over %s only: got %q, want nothing", dir, got)
		}
	}
}
