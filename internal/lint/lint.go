// Package lint implements ivnlint, the simulator's domain-specific static
// analysis suite.
//
// The compiler and go vet cannot see the invariants this repository's
// correctness rests on: published tables must be byte-reproducible (no
// wall-clock, no global math/rand, no map-order-dependent rows), the
// figure kernels allocate nothing, goroutines belong on the sanctioned
// bounded runners, errors are handled, physical units agree,
// floating-point values are never compared with ==, and no function
// outlives the last program path that reached it. Each analyzer in this
// package enforces one of those invariants over the type-checked AST,
// using only the standard library's go/ast, go/parser, go/token and
// go/types — the module stays offline-buildable with zero dependencies.
//
// Findings can be silenced case-by-case with a suppression comment on the
// offending line or the line directly above it:
//
//	//ivn:allow <analyzer> <reason>
//
// The reason is mandatory; a bare suppression is itself reported. The
// cmd/ivnlint driver prints findings as file:line:col diagnostics or as
// JSON, and exits non-zero when any survive.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	// Analyzer names the check that fired (e.g. "determinism").
	Analyzer string `json:"analyzer"`
	// File is the path of the offending file as the loader saw it.
	File string `json:"file"`
	// Line and Col locate the finding (1-based).
	Line int `json:"line"`
	Col  int `json:"col"`
	// Message describes the violation and the sanctioned alternative.
	Message string `json:"message"`
}

// String formats the finding as a conventional compiler diagnostic.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Analyzer is one named check. Run inspects the pass's files and reports
// violations through pass.Reportf.
type Analyzer struct {
	// Name is the identifier used in reports and //ivn:allow comments.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// SkipTests excludes *_test.go files from the pass.
	SkipTests bool
	// WholeProgram marks a check whose verdict needs every caller in
	// view. It runs only when the analyzed packages are the whole
	// program (Program.Whole); on a partial run it reports nothing and
	// its suppressions are not checked for staleness.
	WholeProgram bool
	// Run performs the analysis.
	Run func(*Pass)
}

// Pass is the per-(package, analyzer) view handed to Run.
type Pass struct {
	// Fset resolves positions.
	Fset *token.FileSet
	// Pkg is the package under analysis.
	Pkg *Package
	// Files is the syntax to inspect, already filtered by SkipTests.
	Files []*ast.File
	// Info is the package's type-checking result.
	Info *types.Info
	// Prog is the module-wide interprocedural view: call graph, fact
	// store and unit-annotation index over every package of the run
	// (analyzed packages plus their loaded dependencies).
	Prog *Program

	analyzer *Analyzer
	findings []Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.findings = append(p.findings, Finding{
		Analyzer: p.analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in report order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Determinism,
		FloatCmp,
		GoroutineHygiene,
		ErrCheck,
		Unitcheck,
		Hotpath,
		Unreached,
	}
}

// Program is the interprocedural view shared by every pass of one run:
// the module-wide call graph, the fixpointed fact store, and the
// unit-annotation index. Analyzed packages contribute findings; support
// packages (dependencies the loader pulled in) contribute bodies, facts
// and annotations but are never reported on directly.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package // analyzed
	Support  []*Package // facts-only dependencies (deduplicated by path)
	Graph    *CallGraph
	Facts    *Facts
	Units    *unitIndex

	// Whole reports that the analyzed packages are the whole program, so
	// every caller of every function is in view. WholeProgram analyzers
	// run only then.
	Whole bool
	// APIRoot is the import path of the package whose exported API
	// counts as used by code outside the program: the module's root
	// package on a LintDirs run, none ("") otherwise.
	APIRoot string

	// hotReported dedupes hotpath findings by position across packages:
	// two roots in different packages reaching the same allocation site
	// yield one finding.
	hotReported map[string]bool
	// allowed maps a file line to the well-formed //ivn:allow sites that
	// cover it, over analyzed and support files alike; Run fills it
	// before any analyzer runs.
	allowed map[lineKey][]*suppSite
	// reached caches the unreached analyzer's closure, computed once per
	// run.
	reached map[FuncID]bool
}

// BuildProgram assembles the interprocedural state for one run. Support
// packages whose import path is already analyzed are dropped (the
// analyzed instance, which includes in-package test files, wins).
func BuildProgram(analyzed, support []*Package) *Program {
	analyzedPaths := map[string]bool{}
	var fset *token.FileSet
	for _, p := range analyzed {
		analyzedPaths[p.Path] = true
		fset = p.Fset
	}
	var kept []*Package
	for _, p := range support {
		if !analyzedPaths[p.Path] {
			kept = append(kept, p)
			if fset == nil {
				fset = p.Fset
			}
		}
	}
	all := make([]*Package, 0, len(analyzed)+len(kept))
	all = append(all, analyzed...)
	all = append(all, kept...)
	graph := buildCallGraph(all)
	return &Program{
		Fset:        fset,
		Packages:    analyzed,
		Support:     kept,
		Graph:       graph,
		Facts:       computeFacts(graph),
		Units:       buildUnitIndex(all),
		hotReported: map[string]bool{},
	}
}

// AnalyzerByName resolves a name from the suite, or nil.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// allowPrefix introduces a suppression comment.
const allowPrefix = "//ivn:allow"

// suppSite is one parsed //ivn:allow comment: the suppression covers the
// comment's own line and the line directly below it.
type suppSite struct {
	analyzer string
	reason   string
	file     string
	line     int
	col      int
	support  bool // declared in a support (not analyzed) package
}

// lineKey names one line of one file.
type lineKey struct {
	file string
	line int
}

// fileSuppressions scans a file's comments for //ivn:allow directives,
// returning the parsed sites. Malformed directives (unknown analyzer,
// missing reason) come back as findings so a suppression can never
// silently rot.
func fileSuppressions(fset *token.FileSet, f *ast.File) ([]*suppSite, []Finding) {
	var sites []*suppSite
	var malformed []Finding
	report := func(pos token.Pos, msg string) {
		position := fset.Position(pos)
		malformed = append(malformed, Finding{
			Analyzer: "ivnlint",
			File:     position.Filename,
			Line:     position.Line,
			Col:      position.Column,
			Message:  msg,
		})
	}
	for _, group := range f.Comments {
		for _, c := range group.List {
			text, ok := strings.CutPrefix(c.Text, allowPrefix)
			if !ok {
				continue
			}
			fields := strings.Fields(text)
			if len(fields) == 0 {
				report(c.Pos(), "malformed suppression: expected //ivn:allow <analyzer> <reason>")
				continue
			}
			name := fields[0]
			if AnalyzerByName(name) == nil {
				report(c.Pos(), fmt.Sprintf("suppression names unknown analyzer %q", name))
				continue
			}
			reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(text), name))
			if reason == "" {
				report(c.Pos(), fmt.Sprintf("suppression of %q needs a reason: //ivn:allow %s <why this is sanctioned>", name, name))
				continue
			}
			position := fset.Position(c.Pos())
			sites = append(sites, &suppSite{
				analyzer: name,
				reason:   reason,
				file:     position.Filename,
				line:     position.Line,
				col:      position.Column,
			})
		}
	}
	return sites, malformed
}

// Run executes every analyzer over every analyzed package, with the
// support packages' bodies and facts in view, applies the //ivn:allow
// suppressions, reports stale ones, and returns the surviving findings
// sorted by file, line, column and analyzer. Suppressions are
// module-wide: a finding located in another package's file is silenced
// by the //ivn:allow at that file's line, no matter which pass produced
// it. A suppression declared in an analyzed package is stale when its
// analyzer ran and no finding consumed it; sites in support packages are
// never reported. A WholeProgram analyzer does not run on a partial
// program, so its suppressions are never stale there. Duplicate
// positions from interprocedural analyzers (two roots reaching one site)
// collapse to a single finding.
func (prog *Program) Run(analyzers []*Analyzer) []Finding {
	if !prog.Whole {
		var scoped []*Analyzer
		for _, an := range analyzers {
			if !an.WholeProgram {
				scoped = append(scoped, an)
			}
		}
		analyzers = scoped
	}

	// Module-wide suppression map over analyzed and support files alike.
	allowed := map[lineKey][]*suppSite{}
	prog.allowed = allowed
	var sites []*suppSite
	var all []Finding
	collect := func(pkg *Package, isSupport bool) {
		for _, f := range pkg.Files {
			fs, malformed := fileSuppressions(pkg.Fset, f)
			for _, s := range fs {
				s.support = isSupport
				sites = append(sites, s)
				allowed[lineKey{s.file, s.line}] = append(allowed[lineKey{s.file, s.line}], s)
				allowed[lineKey{s.file, s.line + 1}] = append(allowed[lineKey{s.file, s.line + 1}], s)
			}
			if !isSupport {
				all = append(all, malformed...)
			}
		}
	}
	for _, pkg := range prog.Packages {
		collect(pkg, false)
	}
	for _, pkg := range prog.Support {
		collect(pkg, true)
	}

	used := map[*suppSite]bool{}
	ran := map[string]bool{}
	for _, an := range analyzers {
		ran[an.Name] = true
	}
	for _, pkg := range prog.Packages {
		for _, an := range analyzers {
			files := pkg.Files
			if an.SkipTests {
				files = files[:0:0]
				for _, f := range pkg.Files {
					if !pkg.IsTest[f] {
						files = append(files, f)
					}
				}
			}
			if len(files) == 0 {
				continue
			}
			pass := &Pass{
				Fset:     pkg.Fset,
				Pkg:      pkg,
				Files:    files,
				Info:     pkg.Info,
				Prog:     prog,
				analyzer: an,
			}
			an.Run(pass)
			for _, fd := range pass.findings {
				dropped := false
				for _, s := range allowed[lineKey{fd.File, fd.Line}] {
					if s.analyzer == fd.Analyzer {
						dropped = true
						used[s] = true
					}
				}
				if !dropped {
					all = append(all, fd)
				}
			}
		}
	}
	for _, s := range sites {
		if !s.support && ran[s.analyzer] && !used[s] {
			all = append(all, Finding{
				Analyzer: "ivnlint",
				File:     s.file,
				Line:     s.line,
				Col:      s.col,
				Message:  fmt.Sprintf("stale suppression: //ivn:allow %s no longer matches any finding on this line or the next; delete it", s.analyzer),
			})
		}
	}

	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	// Interprocedural findings can repeat a position across packages
	// with root-dependent wording; keep the first per (analyzer, pos).
	type posKey struct {
		analyzer, file string
		line, col      int
	}
	seen := map[posKey]bool{}
	out := all[:0]
	for _, fd := range all {
		k := posKey{fd.Analyzer, fd.File, fd.Line, fd.Col}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, fd)
	}
	return out
}

// objectPkgPath returns the package path of the object an identifier
// resolves to, or "" for locals, builtins and unresolved names.
func objectPkgPath(info *types.Info, id *ast.Ident) string {
	obj := info.Uses[id]
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), or nil for builtins, conversions, and
// calls through function-typed variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// funcUnits yields every function-like body in the files: declarations and
// function literals, each as its own unit (a literal's body is not part of
// its enclosing declaration's unit).
type funcUnit struct {
	// name is the declared name, or "" for literals.
	name string
	body *ast.BlockStmt
}

func funcUnits(files []*ast.File) []funcUnit {
	var units []funcUnit
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					units = append(units, funcUnit{name: fn.Name.Name, body: fn.Body})
				}
			case *ast.FuncLit:
				units = append(units, funcUnit{body: fn.Body})
			}
			return true
		})
	}
	return units
}
