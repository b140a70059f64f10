package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	ecg "edgecachegroups"
)

const (
	// tickInterval is the maintenance period of the served engine.
	tickInterval = 250 * time.Millisecond
	// openShare is the part of --seconds the open-loop phase takes; the
	// closed loop takes the rest.
	openShare = 0.4
	// closedWindows is how many equal windows closed-loop completions are
	// counted in; throughput_per_s is the median of their rates.
	closedWindows = 20
)

// served is a booted groupformd: engine plus loopback listener.
type served struct {
	engine *ecg.ServeEngine
	server *ecg.ServeServer
}

// bootServer starts the daemon over plan on 127.0.0.1 with groupformd's
// maintenance defaults at tickInterval. With manualTicks the engine's own
// loop is parked (its interval is an hour) and the caller drives Tick.
func bootServer(seed int64, plan *ecg.Plan, manualTicks bool) (*served, error) {
	interval := tickInterval
	if manualTicks {
		interval = time.Hour
	}
	e, err := ecg.NewServeEngine(ecg.ServeConfig{
		Plan: plan,
		Rand: ecg.NewRand(seed),
		Maint: ecg.MaintainerConfig{
			Interval:          interval,
			SampleFraction:    1,
			DriftThreshold:    0.2,
			ReclusterFraction: 0.5,
			Verify:            true,
		},
	})
	if err != nil {
		return nil, err
	}
	srv, err := ecg.ServeGroups("127.0.0.1:0", e, nil)
	if err != nil {
		return nil, err
	}
	return &served{engine: e, server: srv}, nil
}

// tickStats is what the benchmark-driven maintenance rounds recorded.
type tickStats struct {
	ticks      []time.Duration
	reclusters int
	errors     int
}

// driveTicks runs Engine.Tick every tickInterval under a serve.tick span
// until stop is closed; the returned channel yields the tally once the
// goroutine has exited.
func driveTicks(e *ecg.ServeEngine, tr *tracer, stop <-chan struct{}) <-chan tickStats {
	done := make(chan tickStats, 1)
	go func() {
		var ts tickStats
		t := time.NewTicker(tickInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- ts
				return
			case <-t.C:
				sp := tr.begin("serve.tick", -1, 0)
				ev, err := e.Tick()
				ts.ticks = append(ts.ticks, tr.end(sp))
				if err != nil {
					ts.errors++
				}
				if ev.Reclustered {
					ts.reclusters++
				}
			}
		}
	}()
	return done
}

// runServe drives a loopback groupformd: an open loop at --open-rate for
// openShare of the time, then a closed loop over loadWorkers connections.
// Every response is checked.
func runServe(o options, log io.Writer) (*outcome, error) {
	out := newOutcome()
	n, k := o.sizes.FormCaches, o.sizes.FormK
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var sv *served
	boot := func(st *pipelineSetup) error {
		if sv != nil {
			if err := sv.server.Close(); err != nil {
				return err
			}
		}
		var err error
		sv, err = bootServer(o.seed, st.plan, tr != nil)
		return err
	}
	st, err := setup(o, n, k, nil, tr, out, log, boot)
	if err != nil {
		if sv != nil {
			sv.server.Close()
		}
		return nil, err
	}
	defer sv.server.Close()
	mix, err := newMix(o.seed, st.plan)
	if err != nil {
		return nil, err
	}
	e := sv.engine
	c := newClient("http://"+sv.server.Addr(), serveCheck(k, func() uint64 { return e.Epoch().Seq }))
	defer c.close()

	var ticks <-chan tickStats
	stopTicks := make(chan struct{})
	if tr != nil {
		ticks = driveTicks(e, tr, stopTicks)
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	openDur := time.Duration(openShare * float64(budget))
	closedDur := budget - openDur

	runtime.GC()
	root := tr.begin("loadgen.open", -1, 0)
	open := openLoop(c, mix, o.openRate, openDur, tr, root)
	tr.end(root)
	var closed, untraced *loadStats
	var perWindow, untracedWindow []float64
	if tr == nil {
		runtime.GC()
		closed, perWindow = closedLoop(c, mix, closedDur, closedDur/closedWindows, nil, -1)
	} else {
		// Half untraced, half traced: their difference is the tracing
		// overhead.
		runtime.GC()
		untraced, untracedWindow = closedLoop(c, mix, closedDur/2, closedDur/2/closedWindows, nil, -1)
		runtime.GC()
		root = tr.begin("loadgen.closed", -1, 0)
		closed, perWindow = closedLoop(c, mix, closedDur/2, closedDur/2/closedWindows, tr, root)
		tr.end(root)
	}
	close(stopTicks)
	var ts tickStats
	if ticks != nil {
		ts = <-ticks
	}
	for _, ph := range []*loadStats{open, closed, untraced} {
		if ph == nil {
			continue
		}
		out.attempted += ph.attempted
		out.failed += int64(len(ph.errs))
		for i, err := range ph.errs {
			if i < 5 {
				fmt.Fprintln(log, "check failed:", err)
			}
		}
	}
	fmt.Fprintf(log, "serve: open loop %d requests at %.0f/s, p50 %.3f ms, p99 %.3f ms, late p50 %.3f ms; closed loop %d requests in %d windows, median %.0f/s; %d dials; epoch %d\n",
		len(open.latency), o.openRate, percentile(open.latency, 50), percentile(open.latency, 99), percentile(open.late, 50),
		closed.completed, len(perWindow), median(perWindow), c.dials.Load(), e.Epoch().Seq)
	if c.dials.Load() > loadWorkers {
		out.check(fmt.Errorf("load generator opened %d connections, limit %d", c.dials.Load(), loadWorkers), log)
	}

	if tr == nil {
		out.values["latency_p50_ms"] = percentile(open.latency, 50)
		out.values["throughput_per_s"] = median(perWindow)
		if err := finishPeakRSS(out); err != nil {
			return nil, err
		}
		lat, err := qualityLatency(o.seed, st.net.nw, st.plan, o.sizes.QualityTraceSec)
		if err != nil {
			return nil, err
		}
		out.values["sim_latency_ms"] = lat
		return out, nil
	}

	v := out.values
	sum := summarize(tr.snapshot())
	layerValues(out, sum, st.fc, n)
	assign := append(append([]float64(nil), open.assign...), closed.assign...)
	stats := append(append([]float64(nil), open.stats...), closed.stats...)
	v["serve.assign_p50_ms"], v["serve.assign_p99_ms"] = percentile(assign, 50), percentile(assign, 99)
	v["serve.stats_p50_ms"], v["serve.stats_p99_ms"] = percentile(stats, 50), percentile(stats, 99)
	v["serve.latency_p99_ms"] = percentile(open.latency, 99)
	v["serve.tick_p50_ms"] = percentileMS(ts.ticks, 50)
	v["serve.tick_max_ms"] = percentileMS(ts.ticks, 100)
	v["serve.epochs"] = float64(e.Epoch().Seq)
	v["serve.reclusters"] = float64(ts.reclusters)
	v["serve.errors"] = float64(out.failed + int64(ts.errors))
	v["loadgen.late_p50_ms"], v["loadgen.late_p99_ms"] = percentile(open.late, 50), percentile(open.late, 99)
	v["loadgen.backlog"] = float64(open.backlog.Load())
	v["trace.coverage_pct"] = sum.coveragePct("loadgen.closed")
	if t := median(perWindow); t > 0 {
		v["trace.overhead_pct"] = 100 * (median(untracedWindow)/t - 1)
	}
	fmt.Fprint(log, sum)
	return out, tr.write(o.spansDir, fmt.Sprintf("serve-seed%d.jsonl", o.seed))
}
