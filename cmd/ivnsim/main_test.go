package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"ivn/internal/engine"
	"ivn/internal/ivnsim/runspec"
)

// asCommandEnv, set in a test binary's environment, makes TestMain run
// the command on the binary's arguments instead of the tests. The
// process tests re-execute the test binary this way, so a signal they
// send lands on the command itself and no separate build is needed.
const asCommandEnv = "IVNSIM_TEST_AS_COMMAND"

func TestMain(m *testing.M) {
	if os.Getenv(asCommandEnv) != "" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// childCommand returns the test binary set up to run as ivnsim args.
func childCommand(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), asCommandEnv+"=1")
	return cmd
}

// runChild runs ivnsim args as a child process, failing the test unless
// it exits 0, and returns its standard output and standard error.
func runChild(t *testing.T, args ...string) (stdout, stderr []byte) {
	t.Helper()
	cmd := childCommand(t, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("ivnsim %s: %v\n%s", strings.Join(args, " "), err, errb.Bytes())
	}
	return out.Bytes(), errb.Bytes()
}

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

// fragmentReceipt matches the counts of a fragment's stderr receipt.
var fragmentReceipt = regexp.MustCompile(`recorded (\d+), replayed (\d+)`)

// journalEntries counts the complete trial lines of a journal: every
// newline-terminated line after the header.
func journalEntries(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	return max(bytes.Count(data, []byte("\n"))-1, 0)
}

// TestKilledFragmentResumesAndMerges drives a sharded run through the
// command as real processes. Fragment 0/2 is SIGKILLed once its journal
// holds a trial, which can leave a torn final line; -resume must replay
// the journaled trials and execute the rest; and -merge of both
// fragments must print, and write under -out, the exact bytes of a
// single-process run.
func TestKilledFragmentResumesAndMerges(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the command as child processes")
	}
	dir := t.TempDir()
	frags := filepath.Join(dir, "frags")
	if err := os.Mkdir(frags, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := []string{"-run", "population", "-quick", "-seed", "2", "-trials", "8"}
	j0 := filepath.Join(frags, "f0.jsonl")
	frag0 := slices.Concat(spec, []string{"-shard", "0/2", "-journal", j0})

	// On one worker the fragment journals its first 16-tag trial within
	// milliseconds and then spends hundreds of milliseconds on its
	// 256- and 1000-tag trials, so the kill lands mid-run.
	cmd := childCommand(t, slices.Concat(frag0, []string{"-parallel", "1"})...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for journalEntries(j0) == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("fragment 0/2 ended before the kill landed (%v, %d journal entries)", err, journalEntries(j0))
	}

	_, receipt := runChild(t, slices.Concat(frag0, []string{"-resume"})...)
	m := fragmentReceipt.FindSubmatch(receipt)
	if m == nil {
		t.Fatalf("no fragment receipt on the resume's stderr: %s", receipt)
	}
	recorded, _ := strconv.Atoi(string(m[1]))
	replayed, _ := strconv.Atoi(string(m[2]))
	if recorded == 0 || replayed == 0 {
		t.Fatalf("resume recorded %d and replayed %d trials, want both > 0: %s", recorded, replayed, receipt)
	}
	runChild(t, slices.Concat(spec, []string{"-shard", "1/2", "-journal", filepath.Join(frags, "f1.jsonl")})...)

	mergedDir, refDir := filepath.Join(dir, "merged"), filepath.Join(dir, "ref")
	merged, _ := runChild(t, "-merge", frags, "-json", "-out", mergedDir)
	ref, _ := runChild(t, slices.Concat(spec, []string{"-json", "-out", refDir})...)
	if !bytes.Equal(merged, ref) {
		t.Errorf("merged -json stdout differs from the single-process run:\n%s\nwant:\n%s", merged, ref)
	}
	for _, ext := range []string{"txt", "csv", "json"} {
		want, err := os.ReadFile(filepath.Join(refDir, "population."+ext))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(mergedDir, "population."+ext))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("merged population.%s differs from the single-process run's", ext)
		}
	}
}
