package service

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ivn/internal/engine"
	"ivn/internal/ivnsim/runspec"
)

// quickSpec is a fast CI-sized run.
func quickSpec(id string, seed uint64) runspec.Spec {
	return runspec.Spec{Experiment: id, Seed: seed, Quick: true}
}

// longSpec is a run that takes tens of seconds if left alone: the
// population sweep's largest point simulates a 1000-tag inventory round
// per trial, so raising the trial count stretches the run while keeping
// individual trials (the cancellation granularity) well under a second.
func longSpec(seed uint64) runspec.Spec {
	return runspec.Spec{Experiment: "population", Seed: seed, Quick: true, Trials: 40}
}

// abortClose tears a manager down without waiting for queued work: the
// expired context makes Close cancel running jobs instead of draining.
func abortClose(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = m.Close(ctx)
}

// waitTerminal blocks until the job finishes or the deadline passes.
func waitTerminal(t *testing.T, job *Job, d time.Duration) {
	t.Helper()
	select {
	case <-job.Done():
	case <-time.After(d):
		t.Fatalf("job %s still %s after %v", job.ID(), job.Status().State, d)
	}
}

// waitRunning polls until a worker has claimed the job.
func waitRunning(t *testing.T, job *Job) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if job.Status().State == StateRunning {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never started running (state %s)", job.ID(), job.Status().State)
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{
		{Workers: -1}, {QueueDepth: -2}, {MaxParallel: -1}, {CacheEntries: -3},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v validated", bad)
		}
	}
	if _, err := New(Config{Workers: -1}); err == nil {
		t.Fatal("New accepted a negative worker count")
	}
}

func TestJobLifecycle(t *testing.T) {
	m, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer abortClose(t, m)

	spec := quickSpec("fig2", 7)
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := job.Status(); got.State != StateQueued && got.State != StateRunning && got.State != StateDone {
		t.Fatalf("fresh job in state %s", got.State)
	}
	waitTerminal(t, job, 60*time.Second)

	st := job.Status()
	if st.State != StateDone || st.Cached || st.Error != "" {
		t.Fatalf("finished job status %+v", st)
	}
	if st.Experiment != "fig2" || len(st.Key) != 64 {
		t.Fatalf("status identity %+v", st)
	}
	res, ok := job.Result()
	if !ok {
		t.Fatal("done job has no result")
	}

	// The service's stored bytes are exactly the CLI's -json bytes.
	direct, _, err := runspec.Run(context.Background(), engine.Limits{}, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := engine.RenderJSON(direct, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res, want.Bytes()) {
		t.Fatal("service result diverged from the CLI pipeline")
	}

	// Retrieval by id and the lifecycle counters.
	if got, ok := m.Get(job.ID()); !ok || got != job {
		t.Fatal("Get did not return the submitted job")
	}
	if n := m.metrics.JobsCompleted.Load(); n != 1 {
		t.Fatalf("JobsCompleted = %d", n)
	}
	if n := m.metrics.CacheMisses.Load(); n != 1 {
		t.Fatalf("CacheMisses = %d", n)
	}
	if n := m.metrics.JobsInFlight.Load(); n != 0 {
		t.Fatalf("JobsInFlight = %d after completion", n)
	}
}

func TestCacheHitSkipsExecution(t *testing.T) {
	m, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer abortClose(t, m)

	spec := quickSpec("fig3", 11)
	first, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, first, 60*time.Second)
	firstRes, _ := first.Result()
	trialsBefore := m.metrics.Sched.Trials.Load()

	// An equivalent spec — different JSON shape, same canonical run.
	again := runspec.Spec{Experiment: "fig3", Seed: 11, Quick: true, FaultScales: []float64{}}
	second, err := m.Submit(again)
	if err != nil {
		t.Fatal(err)
	}
	st := second.Status()
	if st.State != StateDone || !st.Cached {
		t.Fatalf("second submission not served from cache: %+v", st)
	}
	select {
	case <-second.Done():
	default:
		t.Fatal("cached job's Done channel not closed at submit")
	}
	secondRes, _ := second.Result()
	if !bytes.Equal(firstRes, secondRes) {
		t.Fatal("cached bytes differ from the original run")
	}
	if n := m.metrics.CacheHits.Load(); n != 1 {
		t.Fatalf("CacheHits = %d", n)
	}
	if after := m.metrics.Sched.Trials.Load(); after != trialsBefore {
		t.Fatalf("cache hit ran %d new trials", after-trialsBefore)
	}
	if rate := m.metrics.CacheHitRate(); rate != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", rate)
	}
}

// TestCancelRunningJobReturnsPromptly is the DELETE latency contract: a
// job mid-way through a large population sweep must reach its terminal
// state within 2 seconds of cancellation, because the engine checks the
// context between trials, never only at point boundaries.
func TestCancelRunningJobReturnsPromptly(t *testing.T) {
	m, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer abortClose(t, m)

	job, err := m.Submit(longSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, job)
	// Let it get into the sweep proper before pulling the plug.
	time.Sleep(200 * time.Millisecond)

	start := time.Now()
	state, err := m.Cancel(job.ID())
	if err != nil {
		t.Fatal(err)
	}
	if state != StateRunning && state != StateCancelled {
		t.Fatalf("cancel of a running job reported %s", state)
	}
	select {
	case <-job.Done():
	case <-time.After(2 * time.Second):
		t.Fatalf("job not terminal %v after cancel", time.Since(start))
	}
	st := job.Status()
	if st.State != StateCancelled {
		t.Fatalf("state after cancel = %s", st.State)
	}
	if !strings.Contains(st.Error, context.Canceled.Error()) {
		t.Fatalf("cancelled job error = %q", st.Error)
	}
	if _, ok := job.Result(); ok {
		t.Fatal("cancelled job produced a result (partial tables must never escape)")
	}
	if n := m.metrics.JobsCancelled.Load(); n != 1 {
		t.Fatalf("JobsCancelled = %d", n)
	}
	// Cancelling again is a stable no-op.
	if again, err := m.Cancel(job.ID()); err != nil || again != StateCancelled {
		t.Fatalf("re-cancel: %s, %v", again, err)
	}
}

func TestCancelQueuedJobImmediately(t *testing.T) {
	m, err := New(Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer abortClose(t, m)

	running, err := m.Submit(longSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, running)
	queued, err := m.Submit(longSpec(6))
	if err != nil {
		t.Fatal(err)
	}
	if st := queued.Status().State; st != StateQueued {
		t.Fatalf("second job is %s with a busy single worker", st)
	}
	state, err := m.Cancel(queued.ID())
	if err != nil || state != StateCancelled {
		t.Fatalf("cancel queued: %s, %v", state, err)
	}
	select {
	case <-queued.Done():
	default:
		t.Fatal("queued job not terminal immediately after cancel")
	}
	if _, err := m.Cancel("r999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel of unknown id: %v", err)
	}
}

func TestQueueFullRejectsSubmission(t *testing.T) {
	m, err := New(Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer abortClose(t, m)

	running, err := m.Submit(longSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, running)
	if _, err := m.Submit(longSpec(9)); err != nil {
		t.Fatalf("queue slot rejected: %v", err)
	}
	_, err = m.Submit(longSpec(10))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit: %v", err)
	}
	// The rejected submission left no counters or jobs behind.
	if n := m.metrics.JobsSubmitted.Load(); n != 2 {
		t.Fatalf("JobsSubmitted = %d after a rejection", n)
	}
}

func TestCloseDrainsQueuedJobs(t *testing.T) {
	m, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Submit(quickSpec("fig2", 21))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(quickSpec("fig3", 21))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	for _, job := range []*Job{a, b} {
		if st := job.Status(); st.State != StateDone {
			t.Fatalf("job %s drained to %s", job.ID(), st.State)
		}
	}
	if _, err := m.Submit(quickSpec("fig2", 22)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	// Closing again is a no-op.
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestCloseAbortsWhenContextExpires(t *testing.T) {
	m, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	job, err := m.Submit(longSpec(30))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, job)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close with expiring context: %v", err)
	}
	// Close waited for the worker, so the job is already terminal.
	if st := job.Status().State; st != StateCancelled {
		t.Fatalf("aborted job state = %s", st)
	}
}

func TestReconfigure(t *testing.T) {
	m, err := New(Config{Workers: 1, CacheEntries: 8, MaxParallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer abortClose(t, m)
	m.Reconfigure(4, 1)
	if got := m.maxParallel.Load(); got != 4 {
		t.Fatalf("maxParallel = %d", got)
	}
	if got := m.cache.capacity; got != 1 {
		t.Fatalf("cache capacity = %d", got)
	}
	// Negative parallel and zero cache leave the previous values.
	m.Reconfigure(-1, 0)
	if got := m.maxParallel.Load(); got != 4 {
		t.Fatalf("maxParallel after no-op reload = %d", got)
	}
}

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	c.put(&cacheEntry{key: "a", resultJSON: []byte("A")})
	c.put(&cacheEntry{key: "b", resultJSON: []byte("B")})
	if _, ok := c.get("a"); !ok { // promote a
		t.Fatal("a missing")
	}
	c.put(&cacheEntry{key: "c", resultJSON: []byte("C")}) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted despite promotion")
	}
	c.setCapacity(1)
	if c.len() != 1 {
		t.Fatalf("len = %d after shrink", c.len())
	}
}
