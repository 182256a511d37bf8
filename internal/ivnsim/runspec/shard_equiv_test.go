package runspec

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ivn/internal/engine"
	"ivn/internal/ivnsim"
)

// Shard-merge equivalence suite: for every registered experiment, the
// recombination of shard fragments must render — in all three formats —
// the exact bytes of the single-process run. This is the distributed
// extension of the renderer-equivalence goldens (Seed 11, Quick): if a
// byte differs, sharding changed a result, which it must never do.

// renderAll renders res in every registered format.
func renderAll(t *testing.T, res *engine.Result) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for ext, render := range map[string]engine.Renderer{
		"txt": engine.RenderText, "csv": engine.RenderCSV, "json": engine.RenderJSON,
	} {
		var buf bytes.Buffer
		if err := render(res, &buf); err != nil {
			t.Fatal(err)
		}
		out[ext] = buf.Bytes()
	}
	return out
}

func TestShardMergeByteIdenticalAcrossRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short")
	}
	for _, e := range ivnsim.Registry() {
		for _, count := range []int{2, 4} {
			e, count := e, count
			t.Run(fmt.Sprintf("%s_x%d", e.ID, count), func(t *testing.T) {
				whole := Spec{Experiment: e.ID, Seed: 11, Quick: true}
				res, _, err := Run(context.Background(), engine.Limits{}, whole, nil)
				if err != nil {
					t.Fatal(err)
				}
				want := renderAll(t, res)

				dir := t.TempDir()
				for i := 0; i < count; i++ {
					frag := whole
					frag.Shard = &engine.Shard{Index: i, Count: count}
					frag.Journal = filepath.Join(dir, fmt.Sprintf("frag%d.jsonl", i))
					if _, err := RunFragment(context.Background(), engine.Limits{}, frag); err != nil {
						t.Fatalf("fragment %d/%d: %v", i, count, err)
					}
				}
				paths, err := FindFragments(dir)
				if err != nil {
					t.Fatal(err)
				}
				merged, _, err := Merge(context.Background(), engine.Limits{}, paths)
				if err != nil {
					t.Fatal(err)
				}
				got := renderAll(t, merged)
				for ext, wantBytes := range want {
					if !bytes.Equal(got[ext], wantBytes) {
						t.Errorf("%s x%d: merged %s differs from the single-process rendering", e.ID, count, ext)
					}
				}
			})
		}
	}
}

func TestFragmentKillAndResume(t *testing.T) {
	whole := Spec{Experiment: "fig9", Seed: 11, Quick: true}
	res, _, err := Run(context.Background(), engine.Limits{}, whole, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, res)
	dir := t.TempDir()

	frag1 := whole
	frag1.Shard = &engine.Shard{Index: 1, Count: 2}
	frag1.Journal = filepath.Join(dir, "f1.jsonl")
	if _, err := RunFragment(context.Background(), engine.Limits{}, frag1); err != nil {
		t.Fatal(err)
	}

	// Fragment 0/2 "killed" mid-flight: run it fully, then cut the
	// journal back to half its entries plus a torn partial line — the
	// exact on-disk state a SIGKILL during an append leaves behind.
	frag0 := whole
	frag0.Shard = &engine.Shard{Index: 0, Count: 2}
	frag0.Journal = filepath.Join(dir, "f0.jsonl")
	j, err := RunFragment(context.Background(), engine.Limits{}, frag0)
	if err != nil {
		t.Fatal(err)
	}
	total := j.Recorded()
	if total < 4 {
		t.Fatalf("fragment recorded only %d trials — too few to cut meaningfully", total)
	}
	data, err := os.ReadFile(frag0.Journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	keep := 1 + int(total)/2 // header + half the entries
	torn := append(bytes.Join(lines[:keep], nil), []byte(`{"label":"to`)...)
	if err := os.WriteFile(frag0.Journal, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume: the surviving entries replay, ONLY the lost ones execute.
	// SchedMetrics.Trials counts executed trials only, which pins the
	// never-re-execute contract exactly.
	frag0.Resume = true
	var m engine.SchedMetrics
	j2, err := RunFragment(context.Background(), engine.Limits{Metrics: &m}, frag0)
	if err != nil {
		t.Fatal(err)
	}
	kept := int64(keep - 1)
	if got := j2.Replayed(); got != kept {
		t.Fatalf("resume replayed %d, want the %d surviving entries", got, kept)
	}
	if got := m.Trials.Load(); got != total-kept {
		t.Fatalf("resume executed %d trials, want %d (journaled trials must never re-execute)", got, total-kept)
	}

	// The merge replays both fragments: a trial it executed live would
	// mean it dropped a fragment's entries, which the bytes cannot show.
	var mm engine.SchedMetrics
	merged, _, err := Merge(context.Background(), engine.Limits{Metrics: &mm}, []string{frag0.Journal, frag1.Journal})
	if err != nil {
		t.Fatal(err)
	}
	if got := mm.Trials.Load(); got != 0 {
		t.Fatalf("merge executed %d trials, want 0 (every trial is journaled)", got)
	}
	got := renderAll(t, merged)
	for ext, wantBytes := range want {
		if !bytes.Equal(got[ext], wantBytes) {
			t.Errorf("kill-and-resume merge: %s differs from the single-process rendering", ext)
		}
	}
}
