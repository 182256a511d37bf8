package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"ivn/internal/engine"
	"ivn/internal/ivnsim/runspec"
)

// resumeSpec outlives the waitRunning→abortClose window (seconds of
// work against a millisecond gap) while staying small enough to run to
// completion after the restart, race detector included — longSpec's
// tens of seconds would blow the resumed-completion wait there.
func resumeSpec(seed uint64) runspec.Spec {
	return runspec.Spec{Experiment: "population", Seed: seed, Quick: true, Trials: 8}
}

func TestSubmitShardedMatchesPlainSubmit(t *testing.T) {
	m, err := New(Config{Workers: 1, MaxParallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	plain, err := m.Submit(quickSpec("fig9", 11))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, plain, 2*time.Minute)
	want, ok := plain.Result()
	if !ok {
		t.Fatalf("plain job %s: %s", plain.ID(), plain.Status().Error)
	}

	// Same spec sharded: the cache would satisfy it without running, so
	// use a different seed first to prove execution, then the same seed
	// to prove cache sharing across fan-outs.
	sharded, err := m.SubmitSharded(quickSpec("fig9", 12), 3)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, sharded, 2*time.Minute)
	if _, ok := sharded.Result(); !ok {
		t.Fatalf("sharded job %s: %s", sharded.ID(), sharded.Status().Error)
	}
	st := sharded.Status()
	if st.Shards != 3 {
		t.Fatalf("Status.Shards = %d, want 3", st.Shards)
	}
	if len(st.ShardCaps) != 3 {
		t.Fatalf("Status.ShardCaps = %v, want 3 per-sub-job caps", st.ShardCaps)
	}
	for i, cap := range st.ShardCaps {
		// 4 workers over 3 shards: each sub-job resolved max(1, 4/3) = 1.
		if cap != 1 {
			t.Fatalf("shard %d cap = %d, want 1", i, cap)
		}
	}
	if got := m.Metrics().ShardSubjobs.Load(); got != 3 {
		t.Fatalf("ShardSubjobs = %d, want 3", got)
	}
	if rec, rep := m.Metrics().JournalRecorded.Load(), m.Metrics().JournalReplayed.Load(); rec == 0 || rec != rep {
		t.Fatalf("journal counters recorded=%d replayed=%d, want equal and nonzero", rec, rep)
	}

	// Byte-identity at the same key: a sharded submission of the plain
	// job's spec is a cache hit carrying the plain job's exact bytes.
	again, err := m.SubmitSharded(quickSpec("fig9", 11), 3)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, again, time.Minute)
	got, ok := again.Result()
	if !ok {
		t.Fatal("sharded resubmission did not complete")
	}
	if !again.Status().Cached {
		t.Fatal("sharded submission missed the cache entry its unsharded twin filled")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("sharded result bytes differ from the plain run")
	}
}

func TestSubmitShardedExecutesByteIdentical(t *testing.T) {
	// Cold-cache check: two managers, one plain and one sharded run of
	// the same spec, must produce identical result bytes.
	spec := quickSpec("population", 7)
	run := func(shards int) []byte {
		m, err := New(Config{Workers: 1, MaxParallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close(context.Background())
		var job *Job
		if shards > 1 {
			job, err = m.SubmitSharded(spec, shards)
		} else {
			job, err = m.Submit(spec)
		}
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, job, 2*time.Minute)
		res, ok := job.Result()
		if !ok {
			t.Fatalf("job %s: %s", job.ID(), job.Status().Error)
		}
		return res
	}
	if !bytes.Equal(run(1), run(4)) {
		t.Fatal("sharded daemon run differs from the plain daemon run")
	}
}

func TestSubmitShardedValidation(t *testing.T) {
	m, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	if _, err := m.SubmitSharded(quickSpec("fig9", 1), 1); err == nil {
		t.Error("shard count 1 accepted")
	}
	if _, err := m.SubmitSharded(quickSpec("fig9", 1), maxShards+1); err == nil {
		t.Error("oversized shard count accepted")
	}
	traced := quickSpec("fig12", 1)
	traced.Trace = true
	if _, err := m.SubmitSharded(traced, 2); err == nil {
		t.Error("traced spec accepted for sharded execution")
	}
	// Spec-carried execution details are the daemon's to manage.
	journaled := quickSpec("fig9", 1)
	journaled.Journal = "/tmp/evil.jsonl"
	if _, err := m.Submit(journaled); err == nil || !strings.Contains(err.Error(), "execution details") {
		t.Errorf("journal-carrying spec: %v", err)
	}
	frag := quickSpec("fig9", 1)
	frag.Shard = &engine.Shard{Index: 0, Count: 2}
	frag.Journal = "x"
	if _, err := m.Submit(frag); err == nil {
		t.Error("fragment spec accepted")
	}
}

func TestJobJournalResumesUnfinishedJobs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.jsonl")

	// First daemon: accept two jobs, but die (abortClose) before they
	// finish — both submits reach the journal, no end records do.
	m1, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := m1.Submit(resumeSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := m1.SubmitSharded(quickSpec("fig9", 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, slow)
	abortClose(t, m1)
	_ = sharded

	// Second daemon on the same journal: both jobs resubmit (in order,
	// with the shard fan-out preserved) and complete.
	m2, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	if got := m2.Metrics().JobsResumed.Load(); got != 2 {
		t.Fatalf("JobsResumed = %d, want 2", got)
	}
	var resumedShards *Job
	for _, id := range []string{"r000001", "r000002"} {
		job, ok := m2.Get(id)
		if !ok {
			t.Fatalf("resumed job %s not found", id)
		}
		waitTerminal(t, job, 2*time.Minute)
		if job.Status().State != StateDone {
			t.Fatalf("resumed job %s ended %s: %s", id, job.Status().State, job.Status().Error)
		}
		if job.Status().Shards == 2 {
			resumedShards = job
		}
	}
	if resumedShards == nil {
		t.Fatal("the sharded job lost its fan-out across the restart")
	}

	// Third daemon: everything ended, nothing resubmits.
	m3, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close(context.Background())
	if got := m3.Metrics().JobsResumed.Load(); got != 0 {
		t.Fatalf("JobsResumed = %d after a clean shutdown, want 0", got)
	}
}

func TestJobJournalEndRecordedForTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.jsonl")
	m, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	job, err := m.Submit(quickSpec("fig2", 1))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job, time.Minute)
	// A queued job cancelled before running must also end-record.
	blocker, err := m.Submit(longSpec(9))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, blocker)
	queued, err := m.Submit(longSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	abortClose(t, m)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := journalEnds(t, data)
	if !ends[job.ID()] {
		t.Errorf("done job %s has no end record", job.ID())
	}
	if !ends[queued.ID()] {
		t.Errorf("cancelled-while-queued job %s has no end record", queued.ID())
	}
	if ends[blocker.ID()] {
		t.Errorf("aborted job %s has an end record — it should resume on restart", blocker.ID())
	}
}

// journalEnds returns the ids that have an end record in journal data.
func journalEnds(t *testing.T, data []byte) map[string]bool {
	t.Helper()
	ends := map[string]bool{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec jobRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad journal line %s: %v", line, err)
		}
		if rec.Op == "end" {
			ends[rec.ID] = true
		}
	}
	return ends
}

// journalAtDone reads the journal at path the moment job's Done closes.
// The reader spins on Done rather than blocking, and reads through a
// descriptor opened beforehand, so it looks at the file within
// nanoseconds of the close instead of after a scheduler wake-up and an
// open: a record written just after the close would be missed.
func journalAtDone(t *testing.T, job *Job, path string) <-chan []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan []byte, 1)
	//ivn:allow goroutinehygiene the reader must watch Done while the manager works; it exits once Done closes and its result is joined through ch
	go func() {
		defer f.Close()
		for {
			select {
			case <-job.done:
				data, _ := io.ReadAll(f) // a read error shows as a missing record
				ch <- data
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	return ch
}

// TestJobJournalEndBeforeDone pins the order of a job's last two steps:
// its end record is in the journal before Done closes, for a run that
// finishes, a job cancelled while queued and a running job the client
// cancels. (A process that reopens the journal as soon as Done fires
// must not resubmit the job.)
func TestJobJournalEndBeforeDone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	m, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	awaitEnd := func(job *Job, at <-chan []byte) {
		t.Helper()
		select {
		case data := <-at:
			if !journalEnds(t, data)[job.ID()] {
				t.Fatalf("job %s (%s): no end record when Done fired", job.ID(), job.Status().State)
			}
		case <-time.After(time.Minute):
			t.Fatalf("job %s still %s after a minute", job.ID(), job.Status().State)
		}
	}

	done, err := m.Submit(quickSpec("fig2", 1))
	if err != nil {
		t.Fatal(err)
	}
	awaitEnd(done, journalAtDone(t, done, path))

	blocker, err := m.Submit(longSpec(9))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, blocker)
	queued, err := m.Submit(longSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	at := journalAtDone(t, queued, path)
	if _, err := m.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	awaitEnd(queued, at)

	at = journalAtDone(t, blocker, path)
	if _, err := m.Cancel(blocker.ID()); err != nil {
		t.Fatal(err)
	}
	awaitEnd(blocker, at)
}

func TestLoadPendingToleratesTornTailRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.jsonl")
	spec, err := quickSpec("fig2", 1).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	content := fmt.Sprintf(`{"op":"submit","id":"r000001","spec":%s}
{"op":"end","id":"r000001"}
{"op":"submit","id":"r000002","shards":2,"spec":%s}
{"op":"submit","id":"r0000`, spec, spec)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	pending, err := loadPending(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].shards != 2 {
		t.Fatalf("pending = %+v, want the one unfinished sharded submit", pending)
	}

	// A malformed *complete* line is corruption, not a torn write.
	if err := os.WriteFile(path, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadPending(path); err == nil {
		t.Fatal("garbage journal loaded")
	}

	// A missing file is a fresh daemon.
	if pending, err := loadPending(filepath.Join(dir, "absent.jsonl")); err != nil || pending != nil {
		t.Fatalf("missing file: %v, %v", pending, err)
	}
}

func TestMetricsTextIncludesShardAndJournalCounters(t *testing.T) {
	m, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	var buf bytes.Buffer
	if err := m.Metrics().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	prev := ""
	for _, name := range []string{"jobs_resumed", "journal_recorded", "journal_replayed", "shard_subjobs"} {
		if !strings.Contains(text, name+" ") {
			t.Errorf("metrics text lacks %s:\n%s", name, text)
		}
	}
	// The registry contract: lines stay sorted by name.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		name := strings.Fields(line)[0]
		if name < prev {
			t.Fatalf("metrics lines unsorted: %s after %s", name, prev)
		}
		prev = name
	}
}

func TestHTTPShardsParam(t *testing.T) {
	_, srv := testServer(t, Config{Workers: 1, MaxParallel: 2})
	want := cliJSON(t, quickSpec("fig9", 11))

	body, err := json.Marshal(quickSpec("fig9", 11))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := httpPost(srv.URL+"/v1/runs?shards=2", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 202 {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST ?shards=2: %d %s", resp.StatusCode, raw)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 {
		t.Fatalf("accepted status Shards = %d, want 2", st.Shards)
	}
	env := pollDone(t, srv, st.ID, 2*time.Minute)
	if env.State != StateDone {
		t.Fatalf("sharded run ended %s: %s", env.State, env.Error)
	}
	if !bytes.Equal(append([]byte(nil), env.Result...), bytes.TrimSuffix(want, []byte("\n"))) {
		t.Fatal("HTTP sharded result differs from the CLI bytes")
	}

	// Bad fan-outs are 400s.
	for _, q := range []string{"?shards=x", "?shards=1", "?shards=9999"} {
		resp, err := httpPost(srv.URL+"/v1/runs"+q, body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("POST %s: %d, want 400", q, resp.StatusCode)
		}
	}
}

// httpPost posts a spec document.
func httpPost(url string, body []byte) (*http.Response, error) {
	return http.Post(url, "application/json", bytes.NewReader(body))
}
