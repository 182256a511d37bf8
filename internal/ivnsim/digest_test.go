package ivnsim

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"ivn/internal/engine"
	"ivn/internal/session"
)

// Output digests extend the goldens past the golden config: the SHA-256
// of every experiment's -json document at seeds 3 and 42 and of its
// -trace JSON lines at seed 11, all Quick, committed in sha256sum's
// format. A trace stream is hashed as it is serialized and never stored
// (seed 11's streams are 88 MB together). Like the JSON goldens, the
// sums hold amd64's bits.

// digestsFile holds the committed sums.
const digestsFile = "testdata/digests.sha256"

// digestSeeds are the seeds whose -json documents are summed.
var digestSeeds = []uint64{3, 42}

// traceSeed is the seed whose trace streams are summed.
const traceSeed = 11

// outputDigests runs every registered experiment at the digest configs
// on at most workers trial workers and returns one sha256sum line per
// output, in registry order.
func outputDigests(t *testing.T, workers int) []string {
	t.Helper()
	lim := engine.Limits{MaxParallel: workers}
	var lines []string
	sum := func(name string, write func(io.Writer) error) {
		h := sha256.New()
		if err := write(h); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines = append(lines, fmt.Sprintf("%x  %s", h.Sum(nil), name))
	}
	for _, e := range Registry() {
		for _, seed := range digestSeeds {
			res, err := e.Run(Config{Seed: seed, Quick: true, Limits: lim})
			if err != nil {
				t.Fatalf("%s at seed %d: %v", e.ID, seed, err)
			}
			sum(fmt.Sprintf("seed%d/%s.json", seed, e.ID), func(w io.Writer) error { return engine.RenderJSON(res, w) })
		}
		tlog := session.NewTraceLog()
		if _, err := e.Run(Config{Seed: traceSeed, Quick: true, Trace: tlog, Limits: lim}); err != nil {
			t.Fatalf("%s traced at seed %d: %v", e.ID, traceSeed, err)
		}
		sum(fmt.Sprintf("seed%d/%s.trace.jsonl", traceSeed, e.ID), tlog.WriteJSONL)
	}
	return lines
}

// TestOutputDigests recomputes every committed sum on one trial worker
// and on four. With -update it rewrites the file from the one-worker
// run first, as TestRenderersMatchCommittedGoldens rewrites the goldens.
func TestOutputDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("three registry runs per worker count skipped in -short")
	}
	if raceEnabled {
		t.Skip("the golden test already runs the registry under -race")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("the digests hold amd64's bits, as the JSON goldens do")
	}
	for _, workers := range []int{1, 4} {
		got := outputDigests(t, workers)
		if *update && workers == 1 {
			if err := os.WriteFile(digestsFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		raw, err := os.ReadFile(digestsFile)
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
		if len(got) != len(want) {
			t.Fatalf("%d workers: %d sums, %s holds %d", workers, len(got), digestsFile, len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%d workers: got %s\n\twant %s", workers, got[i], want[i])
			}
		}
	}
}
