package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	ecg "edgecachegroups"
)

// The load generator is one process with loadWorkers goroutines sharing
// one client whose transport keeps at most loadWorkers connections.
const (
	loadWorkers    = 2
	statsBatch     = 16   // caches per POST /stats
	statsShare     = 0.1  // share of requests that are POST /stats
	driftAmplitude = 0.15 // a report scales a cache's RTT vector by up to ±15%
	driftClamp     = 1.5  // a walk stays within [1/1.5, 1.5] of the boot vector
	mixLen         = 4096 // requests in the generated mix, replayed cyclically
	requestTimeout = 5 * time.Second
)

// loadReq is one request of the mix.
type loadReq struct {
	stats bool
	path  string
	body  []byte // POST /stats only
	cache int    // GET /assign only
}

// newMix generates the request mix from the seed: 90% GET /assign for a
// random cache, 10% POST /stats carrying 16 caches' RTT vectors. Each
// cache's reported vector follows a random walk from its boot features:
// every report scales the cache's previous report by one factor drawn
// from [0.85, 1.15], kept within driftClamp of the boot vector. Once a
// walk moves a cache more than the maintainer's 20% threshold from the
// vector its plan holds, the cache drifts and is reassigned.
func newMix(seed int64, plan *ecg.Plan) ([]loadReq, error) {
	src := ecg.NewRand(seed).Split("loadgen")
	n := plan.NumCaches()
	scale := make([]float64, n)
	for i := range scale {
		scale[i] = 1
	}
	mix := make([]loadReq, mixLen)
	for i := range mix {
		if !src.Bernoulli(statsShare) {
			c := src.Intn(n)
			mix[i] = loadReq{path: "/assign?cache=" + strconv.Itoa(c), cache: c}
			continue
		}
		batch := make([]ecg.CacheStat, statsBatch)
		for j := range batch {
			c := src.Intn(n)
			s := scale[c] * (1 + src.Uniform(-driftAmplitude, driftAmplitude))
			scale[c] = math.Min(math.Max(s, 1/driftClamp), driftClamp)
			rtt := make([]float64, len(plan.Features[c]))
			for d, v := range plan.Features[c] {
				rtt[d] = v * scale[c]
			}
			batch[j] = ecg.CacheStat{Cache: c, RTTMS: rtt, Requests: 1}
		}
		body, err := json.Marshal(batch)
		if err != nil {
			return nil, err
		}
		mix[i] = loadReq{stats: true, path: "/stats", body: body}
	}
	return mix, nil
}

// client is the generator's HTTP client. dials counts the connections it
// opened.
type client struct {
	hc    *http.Client
	base  string
	dials atomic.Int64
	check responseCheck
}

// responseCheck validates one decoded response.
type responseCheck func(r *loadReq, status int, body []byte) error

func newClient(base string, check responseCheck) *client {
	c := &client{base: base, check: check}
	dialer := &net.Dialer{}
	c.hc = &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     loadWorkers,
			MaxIdleConns:        loadWorkers,
			MaxIdleConnsPerHost: loadWorkers,
			DisableCompression:  true,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c.dials.Add(1)
				return dialer.DialContext(ctx, network, addr)
			},
		},
	}
	return c
}

// close releases the client's idle connections.
func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends r and checks the response.
func (c *client) do(r *loadReq) error {
	var resp *http.Response
	var err error
	if r.stats {
		resp, err = c.hc.Post(c.base+r.path, "application/json", bytes.NewReader(r.body))
	} else {
		resp, err = c.hc.Get(c.base + r.path)
	}
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("%s: read body: %w", r.path, err)
	}
	return c.check(r, resp.StatusCode, body)
}

// serveCheck is the serve workload's response check: /assign must name
// the requested cache, a published epoch, and a group in [0,k); /stats
// must be accepted (202) with the batch's count.
func serveCheck(k int, latestEpoch func() uint64) responseCheck {
	return func(r *loadReq, status int, body []byte) error {
		if r.stats {
			var got struct {
				Accepted int `json:"accepted"`
			}
			if status != http.StatusAccepted {
				return fmt.Errorf("POST /stats: status %d: %s", status, body)
			}
			if err := json.Unmarshal(body, &got); err != nil {
				return fmt.Errorf("POST /stats: %w", err)
			}
			if got.Accepted != statsBatch {
				return fmt.Errorf("POST /stats: accepted %d of %d", got.Accepted, statsBatch)
			}
			return nil
		}
		var got struct {
			Cache int    `json:"cache"`
			Group int    `json:"group"`
			Epoch uint64 `json:"epoch"`
		}
		if status != http.StatusOK {
			return fmt.Errorf("GET %s: status %d: %s", r.path, status, body)
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("GET %s: %w", r.path, err)
		}
		switch {
		case got.Cache != r.cache:
			return fmt.Errorf("GET %s: answered for cache %d", r.path, got.Cache)
		case got.Epoch < 1 || got.Epoch > latestEpoch():
			return fmt.Errorf("GET %s: epoch %d not published (latest %d)", r.path, got.Epoch, latestEpoch())
		case got.Group < 0 || got.Group >= k:
			return fmt.Errorf("GET %s: group %d out of [0,%d) in epoch %d", r.path, got.Group, k, got.Epoch)
		}
		return nil
	}
}

// loadStats collects one phase's per-request figures.
type loadStats struct {
	mu        sync.Mutex
	latency   []float64 // ms; open loop: from the due time
	late      []float64 // ms the generator sent after the due time (open loop)
	assign    []float64 // ms service time of GET /assign
	stats     []float64 // ms service time of POST /stats
	completed int64
	attempted int64
	errs      []error
	backlog   atomic.Int64 // open loop: requests due in the phase but sent after it
}

func (s *loadStats) add(r *loadReq, due, sent, done time.Time, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	if err != nil {
		s.errs = append(s.errs, err)
		return
	}
	s.completed++
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	if !due.IsZero() {
		s.latency = append(s.latency, ms(done.Sub(due)))
		s.late = append(s.late, ms(sent.Sub(due)))
	}
	if r.stats {
		s.stats = append(s.stats, ms(done.Sub(sent)))
	} else {
		s.assign = append(s.assign, ms(done.Sub(sent)))
	}
}

// openLoop offers the mix at rate requests/s for dur. Request i is due at
// start + i/rate and goes to worker i mod loadWorkers, which sleeps until
// the due time (or sends at once when behind). Latency counts from the
// due time, so a stall also delays every request queued behind it.
func openLoop(c *client, mix []loadReq, rate float64, dur time.Duration, tr *tracer, parent int) *loadStats {
	st := &loadStats{}
	total := int(rate * dur.Seconds())
	gap := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < loadWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < total; i += loadWorkers {
				due := start.Add(time.Duration(i) * gap)
				sleepUntil(due)
				r := &mix[i%len(mix)]
				sp := tr.begin(spanName(r), parent, int64(i))
				sent := time.Now()
				err := c.do(r)
				done := time.Now()
				tr.end(sp)
				st.add(r, due, sent, done, err)
				if sent.After(end) {
					st.backlog.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return st
}

// closedLoop keeps loadWorkers requests in flight, each worker sending
// its next request when the previous one completes, for dur. It returns
// the phase statistics and the completions per window of the given width.
func closedLoop(c *client, mix []loadReq, dur, window time.Duration, tr *tracer, parent int) (*loadStats, []float64) {
	st := &loadStats{}
	start := time.Now()
	end := start.Add(dur)
	windows := make([]int64, int(dur/window)+1)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < loadWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sent := time.Now()
				if !sent.Before(end) {
					return
				}
				i := next.Add(1) - 1
				r := &mix[i%int64(len(mix))]
				sp := tr.begin(spanName(r), parent, i)
				err := c.do(r)
				done := time.Now()
				tr.end(sp)
				st.add(r, time.Time{}, sent, done, err)
				if err == nil && done.Before(end) {
					atomic.AddInt64(&windows[int(done.Sub(start)/window)], 1)
				}
			}
		}()
	}
	wg.Wait()
	full := int(dur / window) // drop the partial last window
	perSec := make([]float64, full)
	for i := 0; i < full; i++ {
		perSec[i] = float64(windows[i]) / window.Seconds()
	}
	return st, perSec
}

func spanName(r *loadReq) string {
	if r.stats {
		return "serve.stats"
	}
	return "serve.assign"
}
