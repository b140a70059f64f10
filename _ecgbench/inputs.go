package main

import (
	"fmt"

	ecg "edgecachegroups"
)

// sizes fixes the input scale of every workload. The benchmark runs at
// benchSizes; tests use smaller ones.
type sizes struct {
	FormCaches, FormK     int     // form and serve: caches and groups
	ReplayCaches, ReplayK int     // replay-*: caches and groups
	TraceSec              float64 // replay-* trace length
	QualityTraceSec       float64 // replay that scores form and serve plans; its first half is warm-up
}

var benchSizes = sizes{
	FormCaches: 2000, FormK: 64,
	ReplayCaches: 500, ReplayK: 32,
	TraceSec:        600,
	QualityTraceSec: 60,
}

// schemeConfig is the CLIs' default scheme (groupform, groupformd): SDSL
// with theta=1, L=25, M=4 and verification on, L clamped so the potential
// landmark set fits the network. No parallelism, pruning, sharding or
// observability knob is set.
func schemeConfig(n int) ecg.SchemeConfig {
	l, m := 25, 4
	if m*(l-1) > n {
		l = n/m + 1
	}
	cfg := ecg.SDSL(l, m, 1.0)
	cfg.Verify = true
	return cfg
}

// transitStubFor grows the default transit-stub topology, one stub domain
// per transit node at a time, until it has a stub router for the origin
// and every cache.
func transitStubFor(n int) ecg.TransitStubParams {
	p := ecg.DefaultTransitStubParams()
	for p.TransitDomains*p.TransitNodesPerDomain*p.StubDomainsPerTransitNode*p.StubNodesPerDomain < n+1 {
		p.StubDomainsPerTransitNode++
	}
	return p
}

// network is one placed edge cache network with its prober and the
// random stream the coordinator draws from. Stream labels follow
// cmd/groupform, so a seed here forms the plan `groupform -seed` would on
// the same topology.
type network struct {
	nw     *ecg.Network
	prober *ecg.Prober
	gfSrc  *ecg.Rand
}

// buildNetwork generates the topology and places n caches; the placement
// (which precomputes every endpoint-pair RTT) is traced as the topology
// layer.
func buildNetwork(seed int64, n int, tr *tracer, parent int) (*network, error) {
	src := ecg.NewRand(seed)
	g, err := ecg.GenerateTransitStub(transitStubFor(n), src.Split("topo"))
	if err != nil {
		return nil, fmt.Errorf("generate topology: %w", err)
	}
	sp := tr.begin("topology.network", parent, 0)
	nw, err := ecg.NewNetwork(g, ecg.PlaceParams{NumCaches: n}, src.Split("place"))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("place network: %w", err)
	}
	prober, err := ecg.NewProber(nw, ecg.DefaultProbeConfig(), src.Split("probe"))
	if err != nil {
		return nil, fmt.Errorf("build prober: %w", err)
	}
	return &network{nw: nw, prober: prober, gfSrc: src.Split("gf")}, nil
}

// coordinator builds the GF-Coordinator for the default scheme.
func (n *network) coordinator() (*ecg.Coordinator, error) {
	return ecg.NewCoordinator(n.nw, n.prober, schemeConfig(n.nw.NumCaches()), n.gfSrc)
}

// traceSet is a replay input: catalog, request and update logs, and the
// per-cache capacity the simulator runs at.
type traceSet struct {
	catalog    *ecg.Catalog
	requests   []ecg.Request
	updates    []ecg.Update
	capacityKB float64
	push       bool
}

// traceKind selects the replay regime.
type traceKind int

const (
	// evictTrace: the default catalog at 3% per-cache capacity (the
	// experiments' setting), pull consistency.
	evictTrace traceKind = iota
	// churnTrace: 90% dynamic documents updated up to 0.5/s, 50% capacity,
	// push invalidation.
	churnTrace
)

// buildTrace generates the catalog and logs for n caches over durSec.
func buildTrace(seed int64, n int, durSec float64, kind traceKind) (*traceSet, error) {
	src := ecg.NewRand(seed).Split("trace")
	cp := ecg.DefaultCatalogParams()
	capFrac := 0.03
	if kind == churnTrace {
		cp.DynamicFraction = 0.9
		cp.UpdateRateMax = 0.5
		capFrac = 0.5
	}
	cat, err := ecg.NewCatalog(cp, src.Split("catalog"))
	if err != nil {
		return nil, fmt.Errorf("build catalog: %w", err)
	}
	tp := ecg.DefaultTraceParams()
	tp.DurationSec = durSec
	reqs, err := ecg.GenerateRequests(cat, n, tp, src.Split("requests"))
	if err != nil {
		return nil, fmt.Errorf("generate requests: %w", err)
	}
	upds, err := ecg.GenerateUpdates(cat, durSec, src.Split("updates"))
	if err != nil {
		return nil, fmt.Errorf("generate updates: %w", err)
	}
	return &traceSet{
		catalog:    cat,
		requests:   reqs,
		updates:    upds,
		capacityKB: capFrac * float64(cp.NumDocuments) * cp.MeanSizeKB,
		push:       kind == churnTrace,
	}, nil
}

// simConfig is the simulator default with verification on, at the
// trace's capacity and consistency mode.
func (t *traceSet) simConfig() ecg.SimConfig {
	cfg := ecg.DefaultSimConfig()
	cfg.Verify = true
	cfg.CacheCapacityKB = t.capacityKB
	cfg.PushInvalidation = t.push
	return cfg
}

// qualityLatency is the paper's second figure for a plan: the mean client
// latency of the cooperative network it forms, from a short default-trace
// replay whose first half warms the caches and is not recorded (a cold
// replay depends more on where the seed put the origin). form and serve
// report it as sim_latency_ms after measuring, so it never enters their
// timings or peak memory.
func qualityLatency(seed int64, nw *ecg.Network, plan *ecg.Plan, durSec float64) (float64, error) {
	ts, err := buildTrace(seed, nw.NumCaches(), durSec, evictTrace)
	if err != nil {
		return 0, err
	}
	cfg := ts.simConfig()
	cfg.WarmupSec = durSec / 2
	sim, err := ecg.NewSimulator(nw, plan.Groups(), ts.catalog, cfg)
	if err != nil {
		return 0, err
	}
	rep, err := sim.Run(ts.requests, ts.updates)
	if err != nil {
		return 0, err
	}
	return rep.MeanLatency(), nil
}
