package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	ecg "edgecachegroups"
)

// setupReps is how many times an untraced run builds its inputs; setup_s
// is the median.
const setupReps = 3

// pipelineSetup is a workload's generated inputs and reference results.
type pipelineSetup struct {
	net  *network
	gf   *ecg.Coordinator
	plan *ecg.Plan
	ref  uint64     // plan checksum every later formation must reproduce
	ts   *traceSet  // replay workloads only
	fc   formCounts // the traced setup formation's counters
}

// setup builds the network, forms the plan, for replay workloads
// generates the trace, and calls boot when non-nil: setupReps times
// untraced (every repetition must reproduce the first, and setup_s is
// their median), once when traced. Traced, the formation is the
// decomposed one, so its layers get spans, and it must match FormGroups.
func setup(o options, n, k int, kind *traceKind, tr *tracer, out *outcome, log io.Writer, boot func(*pipelineSetup) error) (*pipelineSetup, error) {
	reps := setupReps
	if tr != nil {
		reps = 1
	}
	var st *pipelineSetup
	var secs []float64
	var first uint64
	for r := 0; r < reps; r++ {
		st = nil // let the previous repetition be collected
		runtime.GC()
		t0 := time.Now()
		root := tr.begin("setup", -1, 0)
		next, err := setupOnce(o.seed, n, k, kind, o.sizes.TraceSec, tr, root)
		if err == nil && boot != nil {
			sp := tr.begin("serve.boot", root, 0)
			err = boot(next)
			tr.end(sp)
		}
		tr.end(root)
		if err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if r == 0 {
			first = next.ref
		} else {
			var err error
			if next.ref != first {
				err = fmt.Errorf("setup repetition %d formed plan %016x, the first formed %016x", r, next.ref, first)
			}
			out.check(err, log)
		}
		st = next
	}
	if tr != nil {
		// The traced setup formed the plan by decomposition; FormGroups,
		// which the untraced run uses, must form the same one.
		plan, err := st.gf.FormGroups(k)
		if err == nil && plan.Checksum() != st.ref {
			err = fmt.Errorf("FormGroups plan %016x differs from the decomposed %016x", plan.Checksum(), st.ref)
		}
		out.check(err, log)
	}
	out.values["setup_s"] = median(secs)
	out.values["plan_gicost_ms"] = ecg.AvgGroupInteractionCost(st.net.nw, st.plan.Groups())
	fmt.Fprintf(log, "setup: %d caches, k=%d, plan %016x, setup %.3fs (median of %d)\n", n, k, st.ref, median(secs), len(secs))
	return st, nil
}

func setupOnce(seed int64, n, k int, kind *traceKind, traceSec float64, tr *tracer, root int) (*pipelineSetup, error) {
	net, err := buildNetwork(seed, n, tr, root)
	if err != nil {
		return nil, err
	}
	gf, err := net.coordinator()
	if err != nil {
		return nil, err
	}
	var plan *ecg.Plan
	var fc formCounts
	if tr != nil {
		plan, fc, err = formDecomposed(tr, root, 0, net, k)
	} else {
		plan, err = gf.FormGroups(k)
	}
	if err != nil {
		return nil, fmt.Errorf("form groups: %w", err)
	}
	st := &pipelineSetup{net: net, gf: gf, plan: plan, ref: plan.Checksum(), fc: fc}
	if kind != nil {
		sp := tr.begin("workload.generate", root, 0)
		st.ts, err = buildTrace(seed, n, traceSec, *kind)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

// measureLoop runs iter once as an untimed warm-up, then repeatedly, each
// time after a forced GC, until budget has passed and at least minIters
// iterations ran. iter returns the time it measured and the result of its
// correctness check.
func measureLoop(budget time.Duration, minIters int, iter func() (time.Duration, error), out *outcome, log io.Writer) []time.Duration {
	runtime.GC()
	_, err := iter()
	out.check(err, log)
	var ds []time.Duration
	start := time.Now()
	for n := 0; n < minIters || time.Since(start) < budget; n++ {
		runtime.GC()
		d, err := iter()
		out.check(err, log)
		if err == nil {
			ds = append(ds, d)
		}
	}
	return ds
}

// rates converts per-iteration times into work-per-second samples.
func rates(work float64, ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = work / d.Seconds()
	}
	return xs
}

func millis(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	return xs
}

// overheadPct is how much slower the traced iterations ran than the
// untraced ones, as a share of the untraced median.
func overheadPct(untraced, traced []time.Duration) float64 {
	u := median(millis(untraced))
	if u == 0 {
		return 0
	}
	return 100 * (median(millis(traced)) - u) / u
}

// runForm times Coordinator.FormGroups on one placed network. Every
// iteration must reproduce the setup plan's checksum and pass VerifyPlan.
func runForm(o options, log io.Writer) (*outcome, error) {
	out := newOutcome()
	n, k := o.sizes.FormCaches, o.sizes.FormK
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	st, err := setup(o, n, k, nil, tr, out, log, nil)
	if err != nil {
		return nil, err
	}
	checkPlan := func(plan *ecg.Plan) error {
		if plan.Checksum() != st.ref {
			return fmt.Errorf("plan checksum %016x, setup formed %016x", plan.Checksum(), st.ref)
		}
		return ecg.VerifyPlan(plan, st.net.nw)
	}
	formOnce := func() (time.Duration, error) {
		t0 := time.Now()
		plan, err := st.gf.FormGroups(k)
		d := time.Since(t0)
		if err != nil {
			return d, err
		}
		return d, checkPlan(plan)
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if tr == nil {
		ds := measureLoop(budget, 5, formOnce, out, log)
		out.values["throughput_per_s"] = median(rates(float64(n), ds))
		out.values["latency_p50_ms"] = median(millis(ds))
		if err := finishPeakRSS(out); err != nil {
			return nil, err
		}
		lat, err := qualityLatency(o.seed, st.net.nw, st.plan, o.sizes.QualityTraceSec)
		if err != nil {
			return nil, err
		}
		out.values["sim_latency_ms"] = lat
		fmt.Fprintf(log, "form: %d timed iterations, p50 %.1f ms, all %.0f\n", len(ds), median(millis(ds)), millis(ds))
		return out, nil
	}

	untraced := measureLoop(budget/2, 2, formOnce, out, log)
	var req int64
	var fc formCounts
	traced := measureLoop(budget/2, 2, func() (time.Duration, error) {
		req++
		t0 := time.Now()
		plan, c, err := formDecomposed(tr, -1, req, st.net, k)
		d := time.Since(t0)
		if err != nil {
			return d, err
		}
		fc = c
		return d, checkPlan(plan)
	}, out, log)
	sum := summarize(tr.snapshot())
	layerValues(out, sum, fc, n)
	out.values["trace.coverage_pct"] = sum.coveragePct("core.form")
	out.values["trace.overhead_pct"] = overheadPct(untraced, traced)
	fmt.Fprint(log, sum)
	return out, tr.write(o.spansDir, fmt.Sprintf("form-seed%d.jsonl", o.seed))
}

// layerValues fills the topology, landmark, probe, cluster, core and
// verify.plan metrics from the spans and the last formation's counters.
func layerValues(out *outcome, sum spanSummary, fc formCounts, n int) {
	v := out.values
	v["topology.network_ms"] = medianMS(sum.durs["topology.network"])
	endpoints := float64(n + 1)
	v["topology.ns_per_pair"] = 1e6 * v["topology.network_ms"] / (endpoints * endpoints)
	v["landmark.select_ms"] = medianMS(sum.durs["landmark.select"])
	v["probe.features_ms"] = medianMS(sum.durs["probe.features"])
	v["probe.measurements"] = float64(fc.measurements)
	if fc.measurements > 0 {
		v["probe.ns_per_measurement"] = 1e6 * v["probe.features_ms"] / float64(fc.measurements)
		v["probe.allocs_per_measurement"] = float64(fc.allocs) / float64(fc.measurements)
	}
	v["cluster.kmeans_ms"] = medianMS(sum.durs["cluster.kmeans"])
	v["cluster.iterations"] = float64(fc.iterations)
	v["cluster.distevals"] = float64(fc.distEvals)
	if fc.iterations > 0 {
		v["cluster.ns_per_point_iter"] = 1e6 * v["cluster.kmeans_ms"] / float64(fc.points*fc.iterations)
	}
	v["core.form_ms"] = medianMS(sum.durs["core.form"])
	v["core.form_self_ms"] = medianMS(sum.selfs["core.form"])
	v["verify.plan_ms"] = medianMS(sum.durs["verify.plan"])
}

// finishPeakRSS records peak_rss_mb; workloads call it once measuring is
// over, before any post-run scoring.
func finishPeakRSS(out *outcome) error {
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	out.values["peak_rss_mb"] = mb
	return nil
}

// runReplay times Simulator.Run over a fixed plan and trace. Every run
// must reproduce the warm-up run's Report checksum and pass VerifyReport.
func runReplay(o options, kind traceKind, log io.Writer) (*outcome, error) {
	out := newOutcome()
	n, k := o.sizes.ReplayCaches, o.sizes.ReplayK
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	st, err := setup(o, n, k, &kind, tr, out, log, nil)
	if err != nil {
		return nil, err
	}
	ts, nw, groups := st.ts, st.net.nw, st.plan.Groups()
	cfg := ts.simConfig()
	var ref uint64
	var haveRef bool
	var meanLatency float64
	var lastSim *ecg.Simulator
	var lastRep *ecg.Report
	// replayOnce builds a simulator (untimed) and times Run; traced, it
	// also records the layer spans under one replay.iteration root.
	replayOnce := func(req int64) (time.Duration, error) {
		root := -1
		if req > 0 {
			root = tr.begin("replay.iteration", -1, req)
			defer tr.end(root)
		}
		sp := tr.begin("netsim.new", root, req)
		sim, err := ecg.NewSimulator(nw, groups, ts.catalog, cfg)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		sp = tr.begin("netsim.run", root, req)
		t0 := time.Now()
		rep, err := sim.Run(ts.requests, ts.updates)
		d := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return d, err
		}
		if !haveRef {
			ref, meanLatency, haveRef = rep.Checksum(), rep.MeanLatency(), true
		} else if rep.Checksum() != ref {
			return d, fmt.Errorf("report checksum %016x, warm-up run gave %016x", rep.Checksum(), ref)
		}
		sp = tr.begin("verify.report", root, req)
		err = ecg.VerifyReport(rep, ts.requests, ts.updates)
		tr.end(sp)
		lastSim, lastRep = sim, rep
		return d, err
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	requests := float64(len(ts.requests))
	if tr == nil {
		ds := measureLoop(budget, 3, func() (time.Duration, error) { return replayOnce(0) }, out, log)
		out.values["throughput_per_s"] = median(rates(requests, ds))
		out.values["latency_p50_ms"] = median(millis(ds))
		out.values["sim_latency_ms"] = meanLatency
		fmt.Fprintf(log, "replay: %d requests, %d updates, %d timed runs, p50 %.1f ms, all %.0f\n", len(ts.requests), len(ts.updates), len(ds), median(millis(ds)), millis(ds))
		return out, finishPeakRSS(out)
	}

	untraced := measureLoop(budget/2, 1, func() (time.Duration, error) { return replayOnce(0) }, out, log)
	var req int64
	var allocs, retained float64
	traced := measureLoop(budget/2, 1, func() (time.Duration, error) {
		req++
		// Release the previous iteration's simulator and report, so the
		// heap delta is what this Run retains.
		lastSim, lastRep = nil, nil
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := replayOnce(req)
		runtime.ReadMemStats(&after)
		allocs = float64(after.Mallocs - before.Mallocs)
		runtime.GC()
		runtime.ReadMemStats(&after)
		retained = (float64(after.HeapInuse) - float64(before.HeapInuse)) / (1 << 20)
		return d, err
	}, out, log)

	sum := summarize(tr.snapshot())
	layerValues(out, sum, st.fc, n)
	v := out.values
	v["workload.generate_ms"] = medianMS(sum.durs["workload.generate"])
	v["workload.requests"] = requests
	v["workload.updates"] = float64(len(ts.updates))
	v["netsim.new_ms"] = medianMS(sum.durs["netsim.new"])
	v["netsim.run_ms"] = medianMS(sum.durs["netsim.run"])
	v["netsim.ns_per_request"] = 1e6 * v["netsim.run_ms"] / requests
	v["netsim.allocs_per_request"] = allocs / requests
	v["netsim.retained_mb"] = retained
	v["verify.report_ms"] = medianMS(sum.durs["verify.report"])
	if lastRep != nil {
		v["netsim.updates"] = float64(lastRep.Updates)
		v["netsim.invalidations_origin"] = float64(lastRep.InvalidationsOrigin)
		v["netsim.invalidations_forwarded"] = float64(lastRep.InvalidationsForwarded)
		var hits, inserts, evictions, stale int64
		for i := 0; i < n; i++ {
			cs, err := lastSim.CacheStats(ecg.CacheIndex(i))
			if err != nil {
				return nil, err
			}
			hits, inserts, evictions, stale = hits+cs.Hits, inserts+cs.Inserts, evictions+cs.Evictions, stale+cs.StaleDrops
		}
		v["cache.hits"], v["cache.inserts"] = float64(hits), float64(inserts)
		v["cache.evictions"], v["cache.stale_drops"] = float64(evictions), float64(stale)
		if inserts > 0 {
			v["cache.evictions_per_insert"] = float64(evictions) / float64(inserts)
		}
	}
	ct, err := cacheOnlyReplay(nw, ts, cfg)
	if err != nil {
		return nil, err
	}
	v["cache.lookup_ns"], v["cache.insert_ns"] = ct.lookupNs, ct.insertNs
	v["trace.coverage_pct"] = sum.coveragePct("replay.iteration")
	v["trace.overhead_pct"] = overheadPct(untraced, traced)
	fmt.Fprint(log, sum)
	return out, tr.write(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
}
