package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// selfcheck runs every workload (or the one named) with --runs seeds,
// re-invoking this binary once per run with BENCHMARK.json's flags and run
// length, as the benchmark's users do, and prints each end-to-end metric's
// median and interquartile spread as a share of the median next to the
// bound BENCHMARK.json sets for it. A spread over its bound fails the check.
func selfcheck(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("selfcheck", flag.ContinueOnError)
	file := fs.String("benchmark", "BENCHMARK.json", "benchmark definition")
	runs := fs.Int("runs", 10, "runs per workload")
	only := fs.String("workload", "", "check only this workload")
	verbose := fs.Bool("v", false, "print every run's values")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := readBenchmarkFile(*file)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	pass := true
	for _, wl := range b.Workloads {
		if *only != "" && wl.Name != *only {
			continue
		}
		values := map[string][]float64{}
		for r := 0; r < *runs; r++ {
			seed := r + 1
			cmdArgs := append(commandFlags(b.Command), "--workload", wl.Name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(b.RunSeconds), "--trace", "0")
			res, err := runOnce(self, cmdArgs)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.Name, seed, err)
			}
			if !res.Correct || res.Failed != 0 {
				pass = false
				fmt.Fprintf(w, "%s seed %d: correct=%v failed=%d of %d\n", wl.Name, seed, res.Correct, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, m := range b.EndToEnd {
			xs := values[m.Name]
			s := spread(xs)
			verdict := "ok"
			switch {
			case s > m.Bound:
				verdict, pass = "OVER BOUND", false
			case s > m.Bound/3:
				verdict = "over a third of the bound"
			}
			fmt.Fprintf(w, "%-14s %-18s median %12.4f %-4s spread %6.3f bound %5.2f  %s\n", wl.Name, m.Name, median(xs), m.Unit, s, m.Bound, verdict)
			if *verbose {
				fmt.Fprintf(w, "    values: %.4g\n", xs)
			}
		}
	}
	if !pass {
		return fmt.Errorf("a run failed its checks or a spread exceeded its bound")
	}
	return nil
}

// runOnce runs the benchmark binary and decodes its last output line.
func runOnce(bin string, args []string) (*result, error) {
	cmd := exec.Command(bin, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = io.Discard
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = sc.Text()
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("decode result line %q: %w", last, err)
	}
	return &res, nil
}

// commandFlags returns the arguments BENCHMARK.json's command passes to
// the benchmark binary: everything from the first flag on.
func commandFlags(command []string) []string {
	for i, a := range command {
		if strings.HasPrefix(a, "-") {
			return append([]string(nil), command[i:]...)
		}
	}
	return nil
}
