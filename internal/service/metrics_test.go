package service

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMetricsScrapesDoNotInterfere checks that WriteText only reads the
// registry: scrapes running concurrently with each other and with trial
// completions share no state but atomics (the race detector watches),
// and two scrapes with no work between them render the same counter
// lines, so no scraper consumes a window another one would see.
func TestMetricsScrapesDoNotInterfere(t *testing.T) {
	met := newMetrics(time.Now())
	met.JobsCompleted.Add(2)
	met.Sched.Trials.Add(12)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		//ivn:allow goroutinehygiene raw concurrent scrapes of one registry under -race; joined by wg.Wait below
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				if err := met.WriteText(io.Discard); err != nil {
					t.Error(err)
					return
				}
				met.Sched.Trials.Add(1)
			}
		}()
	}
	wg.Wait()

	counters := func() string {
		var buf bytes.Buffer
		if err := met.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			if !strings.HasPrefix(line, "uptime_sec ") {
				lines = append(lines, line)
			}
		}
		return strings.Join(lines, "\n")
	}
	first, second := counters(), counters()
	if first != second {
		t.Fatalf("two idle scrapes differ:\n%s\n---\n%s", first, second)
	}
	if !strings.Contains(first+"\n", "\ntrials_total 212\n") {
		t.Fatalf("trials_total after 12 + 4×50 trials:\n%s", first)
	}
}
