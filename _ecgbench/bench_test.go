package main

import (
	"encoding/json"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	ecg "edgecachegroups"
)

// testSizes keeps every workload small enough for a unit test.
var testSizes = sizes{
	FormCaches: 80, FormK: 6,
	ReplayCaches: 60, ReplayK: 5,
	TraceSec:        60,
	QualityTraceSec: 20,
}

// inputDigest fingerprints every input a seed generates: both networks,
// both traces and the serve request mix.
func inputDigest(t *testing.T, seed int64) uint64 {
	t.Helper()
	h := fnv.New64a()
	put := func(x float64) {
		b := math.Float64bits(x)
		h.Write([]byte{byte(b), byte(b >> 8), byte(b >> 16), byte(b >> 24), byte(b >> 32), byte(b >> 40), byte(b >> 48), byte(b >> 56)})
	}
	for _, n := range []int{testSizes.FormCaches, testSizes.ReplayCaches} {
		net, err := buildNetwork(seed, n, nil, -1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			put(net.nw.DistToOrigin(ecg.CacheIndex(i)))
			put(net.nw.Dist(ecg.CacheIndex(i), ecg.CacheIndex((i+1)%n)))
		}
		gf, err := net.coordinator()
		if err != nil {
			t.Fatal(err)
		}
		plan, err := gf.FormGroups(testSizes.FormK)
		if err != nil {
			t.Fatal(err)
		}
		mix, err := newMix(seed, plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range mix {
			h.Write([]byte(r.path))
			h.Write(r.body)
		}
	}
	for _, kind := range []traceKind{evictTrace, churnTrace} {
		ts, err := buildTrace(seed, testSizes.ReplayCaches, testSizes.TraceSec, kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range ts.requests {
			put(r.TimeSec)
			put(float64(r.Cache))
			put(float64(r.Doc))
		}
		for _, u := range ts.updates {
			put(u.TimeSec)
			put(float64(u.Doc))
		}
		put(ts.capacityKB)
	}
	return h.Sum64()
}

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := inputDigest(t, 7), inputDigest(t, 7); a != b {
		t.Fatalf("seed 7 generated different inputs: %016x vs %016x", a, b)
	}
}

func TestDifferentSeedsDifferentInputs(t *testing.T) {
	if a, b := inputDigest(t, 7), inputDigest(t, 8); a == b {
		t.Fatalf("seeds 7 and 8 generated identical inputs %016x", a)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layers, wls []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	for _, w := range b.Workloads {
		wls = append(wls, w.Name)
	}
	same := func(what string, got []string, want []metricDef) {
		var ws []string
		for _, d := range want {
			ws = append(ws, d.name+" "+d.unit)
		}
		if strings.Join(got, ",") != strings.Join(ws, ",") {
			t.Errorf("%s in BENCHMARK.json:\n  %v\nthe benchmark prints:\n  %v", what, got, ws)
		}
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layers, perLayer)
	if strings.Join(wls, ",") != strings.Join(workloads, ",") {
		t.Errorf("workloads in BENCHMARK.json %v, benchmark runs %v", wls, workloads)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

// TestLoadgenOpensAtMostTwoConnections counts the connections the server
// side accepts while both load phases run.
func TestLoadgenOpensAtMostTwoConnections(t *testing.T) {
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			io.Copy(io.Discard, r.Body)
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(map[string]int{"accepted": statsBatch})
			return
		}
		cache := r.URL.Query().Get("cache")
		io.WriteString(w, `{"cache":`+cache+`,"group":0,"epoch":1}`)
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	mix := []loadReq{{path: "/assign?cache=3", cache: 3}, {stats: true, path: "/stats", body: []byte("[]")}}
	c := newClient(srv.URL, serveCheck(4, func() uint64 { return 1 }))
	defer c.close()
	open := openLoop(c, mix, 2000, 200*time.Millisecond, nil, -1)
	closed, _ := closedLoop(c, mix, 200*time.Millisecond, 50*time.Millisecond, nil, -1)
	for _, st := range []*loadStats{open, closed} {
		if len(st.errs) > 0 {
			t.Fatalf("load phase errors: %v", st.errs[0])
		}
		if st.completed == 0 {
			t.Fatal("a load phase completed no request")
		}
	}
	if n := conns.Load(); n > loadWorkers {
		t.Fatalf("server accepted %d connections, generator limit is %d", n, loadWorkers)
	}
	if n := c.dials.Load(); n > loadWorkers {
		t.Fatalf("generator dialed %d connections, limit is %d", n, loadWorkers)
	}
}

// TestWorkloadsReportEveryMetric runs each workload at test scale, untraced
// and traced, and checks the outputs pass and every metric is reported
// (end-to-end metrics must be non-zero).
func TestWorkloadsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: w, seed: 3, seconds: 0.3, trace: trace, openRate: 400, spansDir: t.TempDir(), sizes: testSizes}
			out, err := run(o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			res := out.result(defs)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			for _, d := range defs {
				if _, ok := out.values[d.name]; !ok && !trace {
					t.Errorf("%s: end-to-end metric %s not measured", w, d.name)
				}
				if !trace && res.Metrics[d.name].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w, d.name, res.Metrics[d.name].Value)
				}
			}
		}
	}
}
