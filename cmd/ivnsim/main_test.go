package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ivn/internal/engine"
	"ivn/internal/ivnsim/runspec"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	if runErr != nil {
		t.Fatal(runErr)
	}
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// quickSpec is the CI-sized spec the CLI tests run.
func quickSpec(id string) runspec.Spec {
	return runspec.Spec{Experiment: id, Seed: 1, Quick: true}
}

func TestRunOneWritesOutputs(t *testing.T) {
	dir := t.TempDir()
	// Silence stdout during the run.
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	err = runOne(quickSpec("fig2"), engine.Limits{}, false, engine.RenderText, dir, nil)
	os.Stdout = old
	devnull.Close()
	if err != nil {
		t.Fatal(err)
	}
	txt, err := os.ReadFile(filepath.Join(dir, "fig2.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(txt), "Diode I-V") {
		t.Fatalf("txt output missing title:\n%s", txt)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "fig2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "V (V),") {
		t.Fatalf("csv output missing header:\n%s", csv)
	}
	// -out also writes the machine-readable result.
	js, err := os.ReadFile(filepath.Join(dir, "fig2.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res engine.Result
	if err := json.Unmarshal(js, &res); err != nil {
		t.Fatalf("fig2.json is not valid JSON: %v", err)
	}
	if res.ID != "fig2" || len(res.Rows) == 0 {
		t.Fatalf("fig2.json incomplete: id %q, %d rows", res.ID, len(res.Rows))
	}
}

func TestRunOneCSVToStdout(t *testing.T) {
	out := captureStdout(t, func() error {
		return runOne(quickSpec("fig3"), engine.Limits{}, false, engine.RenderCSV, "", nil)
	})
	if !strings.Contains(out, "distance (cm),air loss (dB)") {
		t.Fatalf("CSV stdout missing header:\n%s", out)
	}
}

func TestRunOneJSONToStdout(t *testing.T) {
	out := captureStdout(t, func() error {
		return runOne(quickSpec("fig3"), engine.Limits{}, true, engine.RenderJSON, "", nil)
	})
	var res engine.Result
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("-json stdout is not one JSON document: %v\n%s", err, out)
	}
	if res.ID != "fig3" {
		t.Fatalf("JSON id %q, want fig3", res.ID)
	}
	// Cells must carry numeric payloads, not formatted strings.
	found := false
	for _, row := range res.Rows {
		for _, c := range row {
			if c.Kind == engine.KindNumber && len(c.Values) == 1 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no numeric cells in JSON output")
	}
}

// TestRunOneBadOutDirFailsWithPath is the -out error contract: a
// per-file write failure must fail the run (non-nil error → non-zero
// exit in main) and name the path it could not write, not vanish into a
// successful-looking invocation.
func TestRunOneBadOutDirFailsWithPath(t *testing.T) {
	// A path under an existing *file* cannot be created — unlike a
	// read-only directory, this fails even when the test runs as root.
	occupied := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(occupied, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	badDir := filepath.Join(occupied, "sub")

	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	err = runOne(quickSpec("fig2"), engine.Limits{}, false, engine.RenderText, badDir, nil)
	os.Stdout = old
	devnull.Close()

	if err == nil {
		t.Fatal("runOne with an unwritable -out dir succeeded")
	}
	if !strings.Contains(err.Error(), badDir) {
		t.Fatalf("error does not name the unwritable path %q: %v", badDir, err)
	}
}

// runCLI runs the command with args, capturing its exit status, standard
// output and standard error.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	outF, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outF, errF
	code = run(args)
	os.Stdout, os.Stderr = oldOut, oldErr
	outF.Close()
	errF.Close()
	o, err := os.ReadFile(outF.Name())
	if err != nil {
		t.Fatal(err)
	}
	e, err := os.ReadFile(errF.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(o), string(e)
}

// TestMemProfileBadPathFailsBeforeRun: an uncreatable -memprofile path
// exits 2 before the experiment runs, as -cpuprofile does.
func TestMemProfileBadPathFailsBeforeRun(t *testing.T) {
	occupied := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(occupied, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI(t, "-run", "fig3", "-quick", "-memprofile", filepath.Join(occupied, "mem.pprof"))
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr)
	}
	if stdout != "" {
		t.Fatalf("the experiment ran despite the bad profile path:\n%s", stdout)
	}
	if !strings.Contains(stderr, "ivnsim: memprofile:") {
		t.Fatalf("stderr does not report the profile failure:\n%s", stderr)
	}
}

// TestProfileWriteFailureExitsNonZero: a profile that opens but cannot be
// written fails the invocation after the run.
func TestProfileWriteFailureExitsNonZero(t *testing.T) {
	const full = "/dev/full" // every write fails with ENOSPC
	if _, err := os.Stat(full); err != nil {
		t.Skipf("no %s on this system", full)
	}
	for _, name := range []string{"cpuprofile", "memprofile"} {
		code, stdout, stderr := runCLI(t, "-run", "fig3", "-quick", "-"+name, full)
		if code != 1 {
			t.Fatalf("-%s: exit %d, want 1; stderr:\n%s", name, code, stderr)
		}
		if !strings.Contains(stdout, "fig3") {
			t.Fatalf("-%s: the experiment did not run:\n%s", name, stdout)
		}
		if !strings.Contains(stderr, "ivnsim: "+name+":") {
			t.Fatalf("-%s: stderr does not report the profile failure:\n%s", name, stderr)
		}
	}
}

func TestUnknownRunIDHasOnePrefix(t *testing.T) {
	code, _, stderr := runCLI(t, "-run", "nosuchfig")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.HasPrefix(stderr, "ivnsim: unknown experiment \"nosuchfig\"") {
		t.Fatalf("stderr %q, want one ivnsim: prefix before the unknown id", stderr)
	}
}

// TestInvalidSpecKeepsCommandPrefix: spec errors that do not come
// prefixed still start with the command's name.
func TestInvalidSpecKeepsCommandPrefix(t *testing.T) {
	code, _, stderr := runCLI(t, "-run", "fig9", "-trials", "-1")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if want := "ivnsim: runspec: negative trials -1\n"; stderr != want {
		t.Fatalf("stderr %q, want %q", stderr, want)
	}
}

// TestNegativeParallelRejected: a negative worker cap exits 2 before any
// output, as -trials -1 does, instead of silently running at GOMAXPROCS.
func TestNegativeParallelRejected(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-run", "fig3", "-quick", "-parallel", "-3")
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr)
	}
	if stdout != "" {
		t.Fatalf("output before the rejection:\n%s", stdout)
	}
	if want := "ivnsim: -parallel -3: worker cap must be >= 0 (0 = GOMAXPROCS)\n"; stderr != want {
		t.Fatalf("stderr %q, want %q", stderr, want)
	}
}
