package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden from this build")

// TestStdoutMatchesGolden runs three sessions with a standard tag at the
// gastric swine placement (one of them fails to power up) and compares
// everything the program prints with testdata/stdout.golden.
func TestStdoutMatchesGolden(t *testing.T) {
	args := os.Args
	os.Args = []string{"ivnscan", "-swine", "gastric", "-antennas", "8", "-tag", "standard", "-sessions", "3"}
	defer func() { os.Args = args }()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	defer func() { os.Stdout = stdout }()
	main()
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "stdout.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout differs from %s (regenerate with -update):\n%s", golden, got)
	}
}
