package ivnsim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"ivn/internal/engine"
)

// Renderer equivalence suite: the committed text and CSV goldens under
// testdata/golden were captured from the pre-engine string pipeline
// (Seed 11, Quick); the JSON goldens carry every cell at full precision,
// so a change below the text and CSV rounding shows too. Every
// experiment's typed result must render to those exact bytes — a
// refactor is only allowed to change how tables are built, never a
// single output byte — and must survive a JSON round trip unchanged.
//
// The JSON goldens are amd64's bits. A 386 build differs in a few cells
// of fig3, fig10a and fig11 through its pure-Go math library, and arm64
// still fuses multiply-adds in several packages (ROADMAP R3, R4); the
// text and CSV rounding hides both, so every architecture compares those
// and only amd64 compares JSON.

// goldenConfig matches the configuration the goldens were captured with.
func goldenConfig() Config { return Config{Seed: 11, Quick: true} }

// update regenerates the text, CSV and JSON goldens and the output
// digests from this build instead of comparing against them:
//
//	go test ./internal/ivnsim/ -run 'TestRenderersMatchCommittedGoldens|TestOutputDigests' -update
//
// A regeneration is a commit of its own that states why the outputs
// moved.
var update = flag.Bool("update", false, "rewrite the goldens and output digests from this build")

// sweep holds one golden-config run of each registered experiment.
// TestQuickExperimentsAllRun, TestRenderersMatchCommittedGoldens and
// TestResultsRoundTripThroughJSON check different properties of the same
// results, so the package runs the registry once, not three times.
var sweep struct {
	sync.Mutex
	runs map[string]sweepRun
}

type sweepRun struct {
	res *engine.Result
	err error
}

// sweepResult returns e's golden-config result, running e on first use.
func sweepResult(t *testing.T, e Experiment) *engine.Result {
	t.Helper()
	sweep.Lock()
	run, ok := sweep.runs[e.ID]
	if !ok {
		run.res, run.err = e.Run(goldenConfig())
		if sweep.runs == nil {
			sweep.runs = map[string]sweepRun{}
		}
		sweep.runs[e.ID] = run
	}
	sweep.Unlock()
	if run.err != nil {
		t.Fatalf("%s: %v", e.ID, run.err)
	}
	return run.res
}

func TestRenderersMatchCommittedGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short")
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res := sweepResult(t, e)
			renderers := map[string]engine.Renderer{
				"txt": engine.RenderText,
				"csv": engine.RenderCSV,
			}
			if runtime.GOARCH == "amd64" {
				renderers["json"] = engine.RenderJSON
			}
			for ext, render := range renderers {
				path := filepath.Join("testdata", "golden", e.ID+"."+ext)
				var buf bytes.Buffer
				if err := render(res, &buf); err != nil {
					t.Fatal(err)
				}
				if *update {
					if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden: %v", err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("%s.%s differs from the committed golden:\ngot:\n%s\nwant:\n%s",
						e.ID, ext, buf.String(), want)
				}
			}
		})
	}
}

// TestResultsRoundTripThroughJSON decodes every experiment's -json
// document, requires it to equal the typed result, and checks that it
// is a complete table: id and title, a header, rows of the header's
// width, only known cell kinds, and numeric payloads, not just
// formatted strings.
func TestResultsRoundTripThroughJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short")
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res := sweepResult(t, e)
			var buf bytes.Buffer
			if err := engine.RenderJSON(res, &buf); err != nil {
				t.Fatal(err)
			}
			var back engine.Result
			if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
				t.Fatalf("%s: bad JSON: %v", e.ID, err)
			}
			if !reflect.DeepEqual(*res, back) {
				t.Fatalf("%s changed across the JSON round trip", e.ID)
			}

			if back.ID == "" || back.Title == "" {
				t.Fatalf("document has id %q, title %q", back.ID, back.Title)
			}
			if len(back.Columns) == 0 || len(back.Rows) == 0 {
				t.Fatalf("document has %d columns, %d rows", len(back.Columns), len(back.Rows))
			}
			numeric := 0
			for i, row := range back.Rows {
				if len(row) != len(back.Columns) {
					t.Fatalf("row %d has %d cells, header has %d", i, len(row), len(back.Columns))
				}
				for j, c := range row {
					switch c.Kind {
					case engine.KindNumber, engine.KindTuple:
						if len(c.Values) == 0 {
							t.Fatalf("row %d cell %d: %s cell without values", i, j, c.Kind)
						}
					case engine.KindList, engine.KindString, engine.KindBool:
					default:
						t.Fatalf("row %d cell %d: unknown kind %q", i, j, c.Kind)
					}
					numeric += len(c.Values)
				}
			}
			if numeric == 0 {
				t.Fatal("no numeric cell value anywhere in the table")
			}
		})
	}
}
