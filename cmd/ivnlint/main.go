// Command ivnlint runs the repository's domain lint suite (internal/lint)
// over package patterns and reports violations of the simulator's
// correctness invariants: determinism of published tables, scratch-pool
// discipline, float-comparison hygiene, sanctioned concurrency, handled
// errors, physical-unit consistency, and statically alloc-free hot paths.
//
// Usage:
//
//	ivnlint [-json] [-analyzers determinism,pooldiscipline] [pattern ...]
//	ivnlint -list
//
// Patterns are module-relative directories in the go tool's style:
// ".", "./internal/dsp", "./...". With no pattern, "./..." is assumed.
// Exit status: 0 clean, 1 findings reported, 2 usage or load error.
//
// With -json the command emits a single report object:
//
//	{
//	  "schema": 2,
//	  "toolchain": "go1.x",
//	  "analyzers": ["determinism", ...],
//	  "packages": 28,
//	  "findings": [{"file": ..., "line": ..., "col": ..., "analyzer": ..., "message": ...}]
//	}
//
// Suppress a finding with a comment on (or directly above) the line:
//
//	//ivn:allow <analyzer> <reason>
//
// A suppression whose analyzer ran but no longer fires on its line is
// itself reported (analyzer "ivnlint"), so stale allowances cannot
// accumulate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"ivn/internal/lint"
)

// reportSchema versions the -json report layout; bump it whenever a
// field is added, removed or changes meaning.
const reportSchema = 2

// report is the -json output schema.
type report struct {
	Schema    int            `json:"schema"`
	Toolchain string         `json:"toolchain"`
	Analyzers []string       `json:"analyzers"`
	Packages  int            `json:"packages"`
	Findings  []lint.Finding `json:"findings"`
}

func main() {
	var (
		asJSON = flag.Bool("json", false, "emit a JSON report object")
		list   = flag.Bool("list", false, "list analyzers and exit")
		names  = flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.Analyzers()
	if *names != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*names, ",") {
			a := lint.AnalyzerByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "ivnlint: unknown analyzer %q (use -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}
	analyzerNames := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		analyzerNames = append(analyzerNames, a.Name)
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ivnlint: %v\n", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := lint.ExpandPatterns(root, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ivnlint: %v\n", err)
		os.Exit(2)
	}

	findings, err := lint.LintDirs(root, dirs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ivnlint: %v\n", err)
		os.Exit(2)
	}

	// Report paths relative to the module root for stable, clickable
	// output regardless of invocation directory.
	for i := range findings {
		if rel, err := filepath.Rel(root, findings[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].File = rel
		}
	}

	if *asJSON {
		if findings == nil {
			findings = []lint.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report{
			Schema:    reportSchema,
			Toolchain: runtime.Version(),
			Analyzers: analyzerNames,
			Packages:  len(dirs),
			Findings:  findings,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "ivnlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
		fmt.Fprintf(os.Stderr, "ivnlint: %d package dir(s), %d finding(s)\n", len(dirs), len(findings))
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
