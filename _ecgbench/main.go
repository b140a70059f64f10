// Command ecgbench is the repository's benchmark: four workloads over the
// ecg facade and a loopback groupformd, each checked for correctness, with
// end-to-end metrics from an untraced run and per-layer metrics from a
// traced one. See README.md.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash _ecgbench/run.sh --open-rate 10000 --workload serve --seed 1 --seconds 25 --trace 0
//	bash _ecgbench/run.sh selfcheck --runs 10
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what every untraced run prints, for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"plan_gicost_ms", "ms"},
	{"sim_latency_ms", "ms"},
}

// perLayer is what every traced run prints; a layer the workload does not
// run reports 0.
var perLayer = []metricDef{
	{"topology.network_ms", "ms"},
	{"topology.ns_per_pair", "ns"},
	{"workload.generate_ms", "ms"},
	{"workload.requests", "count"},
	{"workload.updates", "count"},
	{"landmark.select_ms", "ms"},
	{"probe.features_ms", "ms"},
	{"probe.ns_per_measurement", "ns"},
	{"probe.measurements", "count"},
	{"probe.allocs_per_measurement", "count"},
	{"cluster.kmeans_ms", "ms"},
	{"cluster.iterations", "count"},
	{"cluster.distevals", "count"},
	{"cluster.ns_per_point_iter", "ns"},
	{"core.form_ms", "ms"},
	{"core.form_self_ms", "ms"},
	{"verify.plan_ms", "ms"},
	{"verify.report_ms", "ms"},
	{"cache.lookup_ns", "ns"},
	{"cache.insert_ns", "ns"},
	{"cache.inserts", "count"},
	{"cache.evictions", "count"},
	{"cache.stale_drops", "count"},
	{"cache.hits", "count"},
	{"cache.evictions_per_insert", "ratio"},
	{"netsim.new_ms", "ms"},
	{"netsim.run_ms", "ms"},
	{"netsim.ns_per_request", "ns"},
	{"netsim.allocs_per_request", "count"},
	{"netsim.retained_mb", "MB"},
	{"netsim.updates", "count"},
	{"netsim.invalidations_origin", "count"},
	{"netsim.invalidations_forwarded", "count"},
	{"serve.assign_p50_ms", "ms"},
	{"serve.assign_p99_ms", "ms"},
	{"serve.stats_p50_ms", "ms"},
	{"serve.stats_p99_ms", "ms"},
	{"serve.latency_p99_ms", "ms"},
	{"serve.tick_p50_ms", "ms"},
	{"serve.tick_max_ms", "ms"},
	{"serve.epochs", "count"},
	{"serve.reclusters", "count"},
	{"serve.errors", "count"},
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.backlog", "count"},
	{"trace.coverage_pct", "%"},
	{"trace.overhead_pct", "%"},
}

var workloads = []string{"form", "replay-evict", "replay-churn", "serve"}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	openRate float64 // serve open-loop rate, requests/s
	spansDir string  // where a traced run writes its spans
	sizes    sizes
}

func parseOptions(args []string, w io.Writer) (options, error) {
	fs := flag.NewFlagSet("ecgbench", flag.ContinueOnError)
	fs.SetOutput(w)
	o := options{sizes: benchSizes, spansDir: filepath.Join(".bench_build", "spans")}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 25, "measured time per run")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	fs.Float64Var(&o.openRate, "open-rate", 0, "serve open-loop rate, requests per second (BENCHMARK.json's command sets it)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = trace == 1
	switch {
	case !contains(workloads, o.workload):
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	case o.seconds <= 0:
		return o, errors.New("--seconds must be > 0")
	case trace != 0 && trace != 1:
		return o, errors.New("--trace must be 0 or 1")
	case o.openRate < 0 || o.workload == "serve" && o.openRate == 0:
		return o, errors.New("--open-rate must be > 0 for serve")
	}
	return o, nil
}

// result is the run's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload hands back: metric values by name and the
// operation tally.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// check counts one operation and, when err is non-nil, its failure.
func (o *outcome) check(err error, log io.Writer) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.failed <= 5 {
			fmt.Fprintln(log, "check failed:", err)
		}
	}
}

// result fills every metric of defs, in its unit, from the outcome.
func (o *outcome) result(defs []metricDef) result {
	r := result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: o.values[d.name], Unit: d.unit}
	}
	return r
}

func run(o options, log io.Writer) (*outcome, error) {
	switch o.workload {
	case "form":
		return runForm(o, log)
	case "replay-evict":
		return runReplay(o, evictTrace, log)
	case "replay-churn":
		return runReplay(o, churnTrace, log)
	default:
		return runServe(o, log)
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "selfcheck" {
		if err := selfcheck(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "ecgbench selfcheck:", err)
			os.Exit(1)
		}
		return
	}
	o, err := parseOptions(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecgbench:", err)
		os.Exit(2)
	}
	out, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecgbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := out.result(defs)
	for _, d := range defs {
		fmt.Printf("%-32s %14.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecgbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
