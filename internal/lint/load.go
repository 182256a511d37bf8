package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package ready for analysis. It
// carries both the regular sources and the in-package _test.go files
// (checked together, exactly as `go test` compiles them); external
// `package foo_test` files become a second Package of their own.
type Package struct {
	// Path is the import path ("ivn/internal/dsp", or a synthetic path
	// for fixture packages outside the module tree).
	Path string
	// Dir is the directory the sources were read from.
	Dir string
	// Fset is the file set all position info resolves through.
	Fset *token.FileSet
	// Files is the syntax to analyze, in deterministic (sorted filename)
	// order.
	Files []*ast.File
	// IsTest marks which files came from *_test.go.
	IsTest map[*ast.File]bool
	// Types and Info hold the type-checker's results for Files.
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of the enclosing module without
// any external tooling: module-local import paths resolve to directories
// under the module root, and standard-library paths type-check from
// $GOROOT source via go/importer's source importer. //go:build lines are
// evaluated against the default tag set (GOOS, GOARCH, compiler), so
// files gated on non-default tags like `race` are excluded exactly as
// `go build` would exclude them.
type Loader struct {
	// Fset is shared by every package the loader touches.
	Fset *token.FileSet
	// RootDir is the absolute module root (the directory with go.mod).
	RootDir string
	// ModulePath is the module path declared in go.mod.
	ModulePath string

	std      types.Importer
	pure     map[string]*types.Package // non-test package cache, by import path
	retained map[string]*Package       // full syntax+Info for module-local imports
	loading  map[string]bool           // cycle detection
}

// NewLoader returns a loader rooted at the module directory rootDir.
func NewLoader(rootDir string) (*Loader, error) {
	abs, err := filepath.Abs(rootDir)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		RootDir:    abs,
		ModulePath: mod,
		std:        importer.ForCompiler(fset, "source", nil),
		pure:       map[string]*types.Package{},
		retained:   map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// Support returns the module-local packages the loader imported as
// dependencies of the explicitly loaded directories, with full syntax and
// type info, sorted by path. Handing these to BuildProgram lets the
// interprocedural analyzers see through cross-package calls even when
// only a subset of directories is being analyzed.
func (l *Loader) Support() []*Package {
	paths := make([]string, 0, len(l.retained))
	for p := range l.retained {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		out = append(out, l.retained[p])
	}
	return out
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			if p := strings.TrimSpace(rest); p != "" {
				return strings.Trim(p, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", gomod)
}

// Import implements types.Importer: module-local paths load from the
// repository tree (regular sources only, mirroring what other packages can
// see), everything else defers to the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		return l.importLocal(path)
	}
	return l.std.Import(path)
}

func (l *Loader) importLocal(path string) (*types.Package, error) {
	if pkg, ok := l.pure[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := l.parseFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if !buildConstraintSatisfied(f) {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go sources in %s", dir)
	}
	pkg, info, err := l.check(path, files, l)
	if err != nil {
		return nil, err
	}
	l.pure[path] = pkg
	l.retained[path] = &Package{
		Path: path, Dir: dir, Fset: l.Fset,
		Files: files, IsTest: map[*ast.File]bool{}, Types: pkg, Info: info,
	}
	return pkg, nil
}

// dirFor maps a module-local import path to its directory.
func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	return filepath.Join(l.RootDir, filepath.FromSlash(rel))
}

func (l *Loader) parseFile(path string) (*ast.File, error) {
	return parser.ParseFile(l.Fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
}

// buildConstraintSatisfied reports whether the file's //go:build line (if
// any) holds under the default tag set. Only comment groups before the
// package clause can carry constraints; the first //go:build line wins,
// matching cmd/go. An unparsable expression counts as satisfied so the
// type-checker surfaces the real problem.
func buildConstraintSatisfied(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return true
			}
			return expr.Eval(defaultBuildTag)
		}
	}
	return true
}

// defaultBuildTag is the tag universe of an ordinary `go build`: the
// host platform, the gc compiler, and every release tag up to the
// toolchain's version. Anything else — race, integration, custom tags —
// is off by default.
func defaultBuildTag(tag string) bool {
	if tag == runtime.GOOS || tag == runtime.GOARCH || tag == runtime.Compiler {
		return true
	}
	if tag == "unix" && (runtime.GOOS == "linux" || runtime.GOOS == "darwin") {
		return true
	}
	return strings.HasPrefix(tag, "go1")
}

// goFilesIn lists the .go files directly inside dir, sorted.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// LoadDir parses and type-checks the package rooted at dir under the given
// import path. The first returned Package holds the regular sources plus
// in-package test files; when the directory also contains an external
// `package <name>_test`, it is returned as a second Package.
func (l *Loader) LoadDir(dir, importPath string) ([]*Package, error) {
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go sources in %s", dir)
	}
	var baseFiles, extFiles []*ast.File
	isTest := map[*ast.File]bool{}
	for _, name := range names {
		f, err := l.parseFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if !buildConstraintSatisfied(f) {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			isTest[f] = true
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			extFiles = append(extFiles, f)
		} else {
			baseFiles = append(baseFiles, f)
		}
	}
	var pkgs []*Package
	if len(baseFiles) > 0 {
		tpkg, info, err := l.check(importPath, baseFiles, l)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", importPath, err)
		}
		pkgs = append(pkgs, &Package{
			Path: importPath, Dir: dir, Fset: l.Fset,
			Files: baseFiles, IsTest: isTest, Types: tpkg, Info: info,
		})
	}
	if len(extFiles) > 0 {
		// The external test package imports the base package by its own
		// path; hand it the freshly checked (test-augmented) result so
		// helpers declared in in-package test files resolve.
		imp := types.Importer(l)
		if len(pkgs) > 0 {
			imp = selfImporter{l: l, path: importPath, pkg: pkgs[0].Types}
		}
		extPath := importPath + "_test"
		tpkg, info, err := l.check(extPath, extFiles, imp)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", extPath, err)
		}
		pkgs = append(pkgs, &Package{
			Path: extPath, Dir: dir, Fset: l.Fset,
			Files: extFiles, IsTest: isTest, Types: tpkg, Info: info,
		})
	}
	return pkgs, nil
}

// selfImporter resolves one import path to an already-checked package and
// defers everything else to the loader.
type selfImporter struct {
	l    *Loader
	path string
	pkg  *types.Package
}

func (s selfImporter) Import(path string) (*types.Package, error) {
	if path == s.path {
		return s.pkg, nil
	}
	return s.l.Import(path)
}

// check runs the type checker over files and returns the package plus the
// analysis info the analyzers consume. Any type error fails the load: the
// lint suite only runs on compiling trees, so an error here means the
// loader (not the code) needs attention.
func (l *Loader) check(path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if len(errs) > 0 {
		limit := len(errs)
		if limit > 5 {
			limit = 5
		}
		msgs := make([]string, 0, limit)
		for _, e := range errs[:limit] {
			msgs = append(msgs, e.Error())
		}
		return nil, nil, fmt.Errorf("type errors: %s", strings.Join(msgs, "; "))
	}
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// ExpandPatterns resolves go-style package patterns — ".", "./pkg",
// "./..." or "./pkg/..." — into the directories under root that contain
// Go sources. testdata, vendor, and hidden directories are pruned from
// recursive walks. The result preserves first-seen order.
func ExpandPatterns(root string, patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		p := pat
		if p == "..." {
			p, recursive = ".", true
		} else if strings.HasSuffix(p, "/...") {
			p, recursive = strings.TrimSuffix(p, "/..."), true
		}
		base := filepath.Join(root, filepath.FromSlash(p))
		fi, err := os.Stat(base)
		if err != nil {
			return nil, fmt.Errorf("lint: pattern %q: %w", pat, err)
		}
		if !fi.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q is not a directory", pat)
		}
		if !recursive {
			if names, err := goFilesIn(base); err == nil && len(names) > 0 {
				add(base)
			}
			continue
		}
		err = filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if names, err := goFilesIn(path); err == nil && len(names) > 0 {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// LintDirs loads every directory as a package of the module rooted at
// root and runs the analyzers over all of them, returning the surviving
// (unsuppressed) findings sorted by position. Module-local dependencies
// of the loaded directories participate as support packages, so
// hot-path closures and unit annotations resolve across package
// boundaries even for partial directory sets. The run is the whole
// program when dirs cover every package directory of the module
// (ExpandPatterns of "./..."); the root package's exported API counts as
// used.
func LintDirs(root string, dirs []string, analyzers []*Analyzer) ([]Finding, error) {
	loader, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	moduleDirs, err := ExpandPatterns(loader.RootDir, []string{"./..."})
	if err != nil {
		return nil, err
	}
	uncovered := map[string]bool{}
	for _, dir := range moduleDirs {
		uncovered[dir] = true
	}
	var pkgs []*Package
	for _, dir := range dirs {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		delete(uncovered, abs)
		rel, err := filepath.Rel(loader.RootDir, abs)
		if err != nil {
			return nil, err
		}
		ip := loader.ModulePath
		if rel != "." {
			ip = loader.ModulePath + "/" + filepath.ToSlash(rel)
		}
		loaded, err := loader.LoadDir(abs, ip)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, loaded...)
	}
	prog := BuildProgram(pkgs, loader.Support())
	prog.Whole = len(uncovered) == 0
	prog.APIRoot = loader.ModulePath
	return prog.Run(analyzers), nil
}
