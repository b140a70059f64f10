package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request (a form
// iteration, a replay iteration, one HTTP request) share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"startNs"` // since the tracer was created
	End    int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the whole run; they are written out
// once, after measuring. A nil *tracer records nothing, so the untraced
// path pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	d := t.spans[id].dur()
	t.mu.Unlock()
	return d
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines in dir/name.
func (t *tracer) write(dir, name string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSummary is what the per-layer metrics are computed from.
type spanSummary struct {
	// durs and selfs hold every span's duration and self time (duration
	// minus the part of its interval its children cover), by span name.
	durs, selfs map[string][]time.Duration
	// covered and rootTotal sum, over the root spans of each name, the
	// time their children cover and their own duration: the span coverage
	// of the end-to-end wall time.
	covered, rootTotal map[string]time.Duration
}

// summarize computes self times and root coverage.
func summarize(spans []span) spanSummary {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := spanSummary{
		durs:      map[string][]time.Duration{},
		selfs:     map[string][]time.Duration{},
		covered:   map[string]time.Duration{},
		rootTotal: map[string]time.Duration{},
	}
	for _, s := range spans {
		cov := coveredBy(s, children[s.ID])
		out.durs[s.Name] = append(out.durs[s.Name], s.dur())
		out.selfs[s.Name] = append(out.selfs[s.Name], s.dur()-cov)
		if s.Parent < 0 {
			out.covered[s.Name] += cov
			out.rootTotal[s.Name] += s.dur()
		}
	}
	return out
}

// coveredBy returns how much of parent's interval the union of kids
// covers (children may overlap when two workers run under one parent).
func coveredBy(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	var curLo, curHi int64 = -1, -1
	for _, v := range iv {
		if v[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v[0], v[1]
			continue
		}
		if v[1] > curHi {
			curHi = v[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// medianMS is the median of ds in milliseconds.
func medianMS(ds []time.Duration) float64 { return percentileMS(ds, 50) }

func percentileMS(ds []time.Duration, p float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	return percentile(xs, p)
}

// coveragePct is the share of the wall time of the root spans called
// root that their child spans cover.
func (s spanSummary) coveragePct(root string) float64 {
	if s.rootTotal[root] == 0 {
		return 0
	}
	return 100 * float64(s.covered[root]) / float64(s.rootTotal[root])
}

func (s spanSummary) String() string {
	names := make([]string, 0, len(s.durs))
	for n := range s.durs {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for _, n := range names {
		out += fmt.Sprintf("  span %-22s n=%-6d p50=%9.3fms self.p50=%9.3fms\n", n, len(s.durs[n]), medianMS(s.durs[n]), medianMS(s.selfs[n]))
	}
	return out
}
