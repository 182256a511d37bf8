// Envelope: visualize what CIB actually does to the field at the sensor.
// Prints an ASCII rendering of one beat period — the time-varying envelope
// whose peaks are the whole point (§3.4, Fig. 5b) — with the harvesting
// windows (above the diode threshold) marked, then runs the §3.7
// two-stage controller and shows how the steady plan widens those windows.
package main

import (
	"fmt"
	"log"
	"math"
	"strings"

	"ivn/internal/circuit"
	"ivn/internal/core"
	"ivn/internal/rng"
)

const (
	cols = 96 // terminal width of the plot
	rows = 12
)

func plot(offsets []float64, betas []float64, threshold float64, title string) {
	n := float64(len(offsets))
	env := core.EnvelopeSeries(offsets, betas, 0, 1.0/(cols*16), cols*16, nil)
	// Column-wise maxima so narrow peaks stay visible.
	colMax := make([]float64, cols)
	for i, v := range env {
		c := i * cols / len(env)
		if v > colMax[c] {
			colMax[c] = v
		}
	}
	fmt.Printf("%s (N=%d, threshold at %.0f%% of max)\n", title, len(offsets), threshold/n*100)
	for row := rows; row >= 1; row-- {
		level := float64(row) / rows * n
		var sb strings.Builder
		for c := 0; c < cols; c++ {
			switch {
			case colMax[c] >= level && level > threshold:
				sb.WriteByte('#')
			case colMax[c] >= level:
				sb.WriteByte('*')
			case math.Abs(level-threshold) < n/(2*rows):
				sb.WriteByte('-')
			default:
				sb.WriteByte(' ')
			}
		}
		marker := "  "
		if math.Abs(level-threshold) < n/(2*rows) {
			marker = "Vth"
		}
		fmt.Printf("%4.1f |%s| %s\n", level, sb.String(), marker)
	}
	fmt.Printf("     +%s+\n", strings.Repeat("-", cols))
	fmt.Printf("      0%st=1s\n", strings.Repeat(" ", cols-5))

	// Harvesting statistics.
	above, dwell, run := 0, 0, 0
	for _, v := range env {
		if v > threshold {
			above++
			run++
			if run > dwell {
				dwell = run
			}
		} else {
			run = 0
		}
	}
	fmt.Printf("above threshold %.1f%% of the period; longest burst %.1f ms; '#' = harvestable\n\n",
		100*float64(above)/float64(len(env)), 1000*float64(dwell)/float64(len(env)))
}

func main() {
	r := rng.New(7)
	offsets := core.PaperOffsets()
	n := len(offsets)
	betas := make([]float64, n)
	for i := range betas {
		if i > 0 {
			betas[i] = r.Phase()
		}
	}

	// The tag's diode threshold sits at 45% of the attainable peak in this
	// walkthrough (a deep-tissue link with a few dB of margin).
	threshold := 0.45 * float64(n)
	fmt.Printf("single antenna: constant envelope at 1.0 — permanently below the %.1f threshold.\n", threshold)
	fmt.Printf("conduction angle of a CW drive at this level: %.3f (nothing harvested)\n\n",
		circuit.ConductionAngle(1, threshold))

	plot(offsets, betas, threshold, "discovery plan (peak-optimized, the published offsets)")

	// Two-stage transition: the response told us the margin; re-plan for
	// dwell above the now-known threshold.
	cfg := core.DefaultOptimizerConfig()
	cfg.Trials, cfg.SamplesPerTrial, cfg.Restarts, cfg.StepsPerRestart = 16, 2048, 2, 24
	ts, err := core.NewTwoStage(n, cfg, r.Split("ts"))
	if err != nil {
		log.Fatal(err)
	}
	// Pretend the discovery peak delivered 4.9x the sensor's minimum power.
	if err := ts.ObserveResponse(4.9e-4, 1e-4, r.Split("obs")); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("two-stage controller: %s stage, ρ = %.2f\n\n", ts.Stage(), ts.Rho())
	steady := ts.CurrentPlan()
	plot(steady.Offsets, betas, ts.Rho()*float64(n),
		fmt.Sprintf("steady plan %v (dwell-optimized)", steady.Offsets))
}
