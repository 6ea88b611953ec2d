package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanID indexes a recorded span; noSpan marks "no parent" and is what a
// disabled (nil) tracer hands out.
type spanID int32

const noSpan spanID = -1

// span is one timed call at a layer boundary. req is the request it serves
// (message or sample sequence number), shared by every span of a request.
type span struct {
	name       string
	start, end int64 // ns since the tracer's base; end 0 while open
	parent     spanID
	req        int64
}

// tracer keeps spans in memory for the traced run and writes them out when
// the run ends. A nil *tracer records nothing, so untraced runs pay only a
// nil check at each boundary.
type tracer struct {
	base    time.Time
	mu      sync.Mutex
	spans   []span
	limit   int
	dropped int
	paused  bool
}

func newTracer(base time.Time, limit int) *tracer {
	return &tracer{base: base, limit: limit, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(name string, parent spanID, req int64, at time.Time) spanID {
	if t == nil {
		return noSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.paused {
		return noSpan
	}
	if len(t.spans) >= t.limit {
		t.dropped++
		return noSpan
	}
	t.spans = append(t.spans, span{name: name, start: int64(at.Sub(t.base)), parent: parent, req: req})
	return spanID(len(t.spans) - 1)
}

// pause stops recording new spans; spans already open can still end.
// The benchmarks trace the fixed-rate phase only, so per-layer times
// describe the same operating point as the latency metrics.
func (t *tracer) pause() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.paused = true
	t.mu.Unlock()
}

func (t *tracer) end(id spanID, at time.Time) {
	if t == nil || id == noSpan {
		return
	}
	t.mu.Lock()
	t.spans[id].end = int64(at.Sub(t.base))
	t.mu.Unlock()
}

// record adds a span whose bounds are already known.
func (t *tracer) record(name string, parent spanID, req int64, start, end time.Time) spanID {
	if t == nil {
		return noSpan
	}
	id := t.begin(name, parent, req, start)
	t.end(id, end)
	return id
}

// layerTime is the per-name view of the trace: each closed span's duration
// and its self time (duration minus the part of it child spans cover).
type layerTime struct {
	dur, self samples
}

// analyze computes duration and self time for every closed span, grouped
// by name. Child intervals are clipped to the parent and merged before
// subtraction, so overlapping children (three readers delivering one
// sample) are not double counted.
func (t *tracer) analyze() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[spanID][]spanID)
	for i, s := range t.spans {
		if s.parent != noSpan && s.end > 0 {
			children[s.parent] = append(children[s.parent], spanID(i))
		}
	}
	out := make(map[string]*layerTime)
	var iv [][2]int64
	for i, s := range t.spans {
		if s.end == 0 {
			continue
		}
		iv = iv[:0]
		for _, c := range children[spanID(i)] {
			cs, ce := t.spans[c].start, t.spans[c].end
			cs, ce = max(cs, s.start), min(ce, s.end)
			if ce > cs {
				iv = append(iv, [2]int64{cs, ce})
			}
		}
		covered := unionLength(iv)
		lt := out[s.name]
		if lt == nil {
			lt = &layerTime{}
			out[s.name] = lt
		}
		d := float64(s.end-s.start) / 1e3
		lt.dur.add(d)
		lt.self.add(d - float64(covered)/1e3)
	}
	return out
}

// unionLength returns the total length covered by the intervals.
func unionLength(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cs, ce := iv[0][0], iv[0][1]
	for _, v := range iv[1:] {
		if v[0] > ce {
			total += ce - cs
			cs, ce = v[0], v[1]
			continue
		}
		ce = max(ce, v[1])
	}
	return total + ce - cs
}

// writeFile dumps every span as CSV (id,parent,req,name,start_ns,end_ns).
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,req,name,start_ns,end_ns")
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, s.parent, s.req, s.name, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
