package service

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"ivn/internal/engine"
)

// Metrics is the service's observability registry: job lifecycle
// counters, cache effectiveness, and the scheduler occupancy the engine
// reports through the shared engine.SchedMetrics. All counters are
// atomic; WriteText may be called concurrently with running jobs.
//
// The registry deliberately stays a plain sorted "name value" text
// format (expvar-style): it is scrape-friendly, diffable in tests, and
// carries no dependency.
type Metrics struct {
	// JobsSubmitted counts accepted submissions (cache hits included).
	JobsSubmitted atomic.Int64
	// JobsCompleted counts jobs that finished with a result.
	JobsCompleted atomic.Int64
	// JobsFailed counts jobs whose run returned an error.
	JobsFailed atomic.Int64
	// JobsCancelled counts jobs cancelled before or during their run.
	JobsCancelled atomic.Int64
	// JobsInFlight is the number of jobs currently executing a run.
	JobsInFlight atomic.Int64
	// JobsResumed counts jobs resubmitted from the job journal at
	// startup (work the previous process accepted but never finished).
	JobsResumed atomic.Int64
	// CacheHits counts submissions served from the result cache.
	CacheHits atomic.Int64
	// CacheMisses counts submissions that had to run.
	CacheMisses atomic.Int64
	// ShardSubjobs counts shard fragments executed for sharded jobs
	// (a 4-shard job adds 4).
	ShardSubjobs atomic.Int64
	// JournalRecorded counts trial samples recorded into shard-fragment
	// journals; JournalReplayed counts samples replayed from the union
	// during merge passes. For a healthy sharded job the two advance by
	// the same amount — divergence means fragments recomputed work.
	JournalRecorded atomic.Int64
	JournalReplayed atomic.Int64

	// Sched aggregates the engine scheduler counters across every job of
	// the manager (trials completed, busy workers, worker cap).
	Sched engine.SchedMetrics

	// queueDepth reports the current number of queued-not-yet-running
	// jobs; installed by the manager.
	queueDepth func() int64

	// start anchors the uptime gauge.
	start time.Time
}

// newMetrics builds a registry anchored at now.
func newMetrics(now time.Time) *Metrics {
	return &Metrics{start: now}
}

// CacheHitRate returns hits/(hits+misses), 0 before any submission.
func (m *Metrics) CacheHitRate() float64 {
	hits := float64(m.CacheHits.Load())
	total := hits + float64(m.CacheMisses.Load())
	if total == 0 {
		return 0
	}
	return hits / total
}

// Occupancy returns busy/cap over the engine scheduler, 0 before any
// trial has run.
func (m *Metrics) Occupancy() float64 {
	cap := m.Sched.Cap.Load()
	if cap == 0 {
		return 0
	}
	return float64(m.Sched.Busy.Load()) / float64(cap)
}

// WriteText renders the registry as sorted "name value" lines. It only
// reads: concurrent scrapes never disturb one another, and a scraper
// derives rates from trials_total and uptime_sec itself.
func (m *Metrics) WriteText(w io.Writer) error {
	uptime := time.Since(m.start).Seconds()
	var depth int64
	if m.queueDepth != nil {
		depth = m.queueDepth()
	}

	// Sorted by name; keep it that way when adding entries.
	lines := []struct {
		name  string
		value string
	}{
		{"cache_hit_rate", fmt.Sprintf("%.4f", m.CacheHitRate())},
		{"cache_hits", fmt.Sprintf("%d", m.CacheHits.Load())},
		{"cache_misses", fmt.Sprintf("%d", m.CacheMisses.Load())},
		{"jobs_cancelled", fmt.Sprintf("%d", m.JobsCancelled.Load())},
		{"jobs_completed", fmt.Sprintf("%d", m.JobsCompleted.Load())},
		{"jobs_failed", fmt.Sprintf("%d", m.JobsFailed.Load())},
		{"jobs_in_flight", fmt.Sprintf("%d", m.JobsInFlight.Load())},
		{"jobs_resumed", fmt.Sprintf("%d", m.JobsResumed.Load())},
		{"jobs_submitted", fmt.Sprintf("%d", m.JobsSubmitted.Load())},
		{"journal_recorded", fmt.Sprintf("%d", m.JournalRecorded.Load())},
		{"journal_replayed", fmt.Sprintf("%d", m.JournalReplayed.Load())},
		{"queue_depth", fmt.Sprintf("%d", depth)},
		{"sched_busy", fmt.Sprintf("%d", m.Sched.Busy.Load())},
		{"sched_cap", fmt.Sprintf("%d", m.Sched.Cap.Load())},
		{"sched_occupancy", fmt.Sprintf("%.4f", m.Occupancy())},
		{"shard_subjobs", fmt.Sprintf("%d", m.ShardSubjobs.Load())},
		{"trials_total", fmt.Sprintf("%d", m.Sched.Trials.Load())},
		{"uptime_sec", fmt.Sprintf("%.1f", uptime)},
	}
	for _, ln := range lines {
		if _, err := fmt.Fprintf(w, "%s %s\n", ln.name, ln.value); err != nil {
			return err
		}
	}
	return nil
}
