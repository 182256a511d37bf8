package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness report reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runSteady runs the workload k times back to back, each as its own
// process on seed, seed+1, ..., and prints every end-to-end metric's
// median, quartiles and spread ((q3 − q1) ÷ median), flagging a spread
// above the metric's bound in BENCHMARK.json.
func runSteady(opt options, k int) error {
	raw, err := os.ReadFile(filepath.Join(opt.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < k; i++ {
		seed := opt.seed + uint64(i)
		cmd := exec.Command(self, "--workload", opt.workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "--trace", "0")
		cmd.Dir = opt.root
		cmd.Stderr = os.Stderr
		outb, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, seed, err)
		}
		res, err := lastLine(outb)
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("run %d (seed %d): %d of %d operations failed", i+1, seed, res.Failed, res.Attempted)
		}
		line := fmt.Sprintf("run %2d seed %d", i+1, seed)
		for _, m := range bf.EndToEnd {
			v := res.Metrics[m.Name]
			values[m.Name] = append(values[m.Name], v.Value)
			units[m.Name] = v.Unit
			line += fmt.Sprintf("  %s=%.6g", m.Name, v.Value)
		}
		fmt.Println(line)
	}
	fmt.Printf("steadiness %s: %d runs of %gs\n", opt.workload, k, opt.seconds)
	fmt.Printf("%-20s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, m := range bf.EndToEnd {
		q1, q2, q3 := quartiles(values[m.Name])
		spread := (q3 - q1) / q2
		flag := ""
		if spread > m.Bound {
			flag = "  UNRESOLVED: spread exceeds bound"
		}
		fmt.Printf("%-20s %12.6g %12.6g %12.6g %8.4f %6.3g %s%s\n", m.Name, q1, q2, q3, spread, m.Bound, units[m.Name], flag)
	}
	return nil
}

// lastLine decodes the JSON result line a run ends with.
func lastLine(out []byte) (resultLine, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var r resultLine
	if err := json.Unmarshal(last, &r); err != nil {
		return r, fmt.Errorf("no result line: %w", err)
	}
	return r, nil
}
