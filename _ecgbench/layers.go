package main

// This is the only file of the benchmark that imports internal packages.
// The end-to-end path goes through the ecg facade; the traced run calls
// the layers below one by one, so each gets its own span. README.md lists
// which planned renames would touch these calls.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	ecg "edgecachegroups"
	"edgecachegroups/internal/cache"
	"edgecachegroups/internal/cluster"
	"edgecachegroups/internal/core"
	"edgecachegroups/internal/landmark"
)

// formCounts is the work the decomposed formation did.
type formCounts struct {
	measurements int64 // probe.Measurer calls while building features
	allocs       int64 // heap allocations while building features
	iterations   int   // K-means rounds
	distEvals    int64 // K-means point-to-center distance evaluations
	points       int
}

// formDecomposed forms the same plan as Coordinator.FormGroups for
// schemeConfig (the caller checks the checksums match), calling landmark
// selection, feature probing, K-means and plan verification separately
// under one core.form span.
func formDecomposed(tr *tracer, parent int, req int64, net *network, k int) (*ecg.Plan, formCounts, error) {
	var fc formCounts
	cfg := schemeConfig(net.nw.NumCaches())
	n := net.nw.NumCaches()
	root := tr.begin("core.form", parent, req)
	defer tr.end(root)

	sp := tr.begin("landmark.select", root, req)
	lms, err := landmark.Greedy{}.Select(net.prober, n, cfg.Landmarks, net.gfSrc.Split("landmarks"))
	tr.end(sp)
	if err != nil {
		return nil, fc, fmt.Errorf("select landmarks: %w", err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m0 := net.prober.Measurements()
	sp = tr.begin("probe.features", root, req)
	features, serverDist, err := core.MeasureFeatureMatrix(net.prober, n, lms, cfg.ProbeParallelism)
	tr.end(sp)
	fc.measurements = net.prober.Measurements() - m0
	runtime.ReadMemStats(&after)
	fc.allocs = int64(after.Mallocs - before.Mallocs)
	if err != nil {
		return nil, fc, fmt.Errorf("measure features: %w", err)
	}

	// SDSL seeding weight 1/d^theta, with d floored at 1 ms as core does.
	weights := make([]float64, n)
	for i, d := range serverDist {
		weights[i] = 1 / math.Pow(math.Max(d, 1), cfg.Theta)
	}
	sp = tr.begin("cluster.kmeans", root, req)
	res, err := cluster.KMeansMatrix(features, k, cluster.WeightedSeeder{Weights: weights}, cfg.Cluster, net.gfSrc.Split("kmeans"))
	tr.end(sp)
	if err != nil {
		return nil, fc, fmt.Errorf("cluster: %w", err)
	}
	fc.iterations, fc.distEvals, fc.points = res.Iterations, res.DistEvals, n

	views := features.RowViews()
	plan := &core.Plan{
		Scheme:      cfg.Name(),
		Landmarks:   lms,
		Features:    views,
		Points:      views,
		ServerDist:  serverDist,
		Assignments: res.Assignments,
		Centers:     res.Centers,
		Algorithm:   core.AlgoKMeans,
		Iterations:  res.Iterations,
		Converged:   res.Converged,
	}
	sp = tr.begin("verify.plan", root, req)
	err = ecg.VerifyPlan(plan, net.nw)
	tr.end(sp)
	if err != nil {
		return nil, fc, err
	}
	return plan, fc, nil
}

// cacheTiming is the standalone cache replay's outcome.
type cacheTiming struct {
	lookupNs, insertNs float64 // mean per call
	lookups, inserts   int64
}

// cacheOnlyReplay sends the trace's requests, in time order with the
// updates applied as version bumps, through one standalone EdgeCache per
// cache at the simulator's capacity and miss penalty: every lookup, and an
// insert after every miss. Inserts are timed one by one; lookups are the
// rest of the loop's time.
func cacheOnlyReplay(nw *ecg.Network, ts *traceSet, cfg ecg.SimConfig) (cacheTiming, error) {
	var ct cacheTiming
	n := nw.NumCaches()
	caches := make([]*cache.EdgeCache, n)
	for i := range caches {
		penalty := cfg.OriginProcessingMS + cfg.RTTsPerTransfer*nw.DistToOrigin(ecg.CacheIndex(i)) + cfg.PerKBMS*ts.catalog.MeanSizeKB()
		ec, err := cache.New(cache.Config{CapacityKB: cfg.CacheCapacityKB, MissPenaltyMS: penalty})
		if err != nil {
			return ct, err
		}
		caches[i] = ec
	}
	upds := append([]ecg.Update(nil), ts.updates...)
	sort.SliceStable(upds, func(a, b int) bool { return upds[a].TimeSec < upds[b].TimeSec })
	version := make([]int64, ts.catalog.NumDocuments())
	var insertTotal time.Duration
	u := 0
	t0 := time.Now()
	for _, r := range ts.requests {
		for u < len(upds) && upds[u].TimeSec <= r.TimeSec {
			version[upds[u].Doc]++
			u++
		}
		ec := caches[r.Cache]
		ct.lookups++
		if ec.Lookup(r.Doc, version[r.Doc], r.TimeSec) {
			continue
		}
		d, err := ts.catalog.Doc(r.Doc)
		if err != nil {
			return ct, err
		}
		i0 := time.Now()
		err = ec.Insert(d, version[r.Doc], r.TimeSec)
		insertTotal += time.Since(i0)
		if err != nil {
			return ct, err
		}
		ct.inserts++
	}
	total := time.Since(t0)
	if ct.lookups > 0 {
		ct.lookupNs = float64(total-insertTotal) / float64(ct.lookups)
	}
	if ct.inserts > 0 {
		ct.insertNs = float64(insertTotal) / float64(ct.inserts)
	}
	return ct, nil
}
