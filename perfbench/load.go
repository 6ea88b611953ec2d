package main

import (
	"sort"
	"time"
)

// target is one workload's open-loop surface: begin opens a measurement
// window, send issues one operation due at intended, recent reports the
// latest observed latency (for failing an overloaded trial fast), and
// finish drains in-flight operations and closes the window.
type target struct {
	begin  func()
	send   func(intended time.Time) error
	recent func() time.Duration
	finish func() window
}

// window is what one measurement window observed. lat.xs[i] was sent at
// at[i]; a quantile over lat reorders lat.xs and breaks that pairing, so
// take sub-window readings first.
type window struct {
	lat       samples // latency from intended send time, ms
	at        []int64 // each latency sample's intended send time, ns
	attempted int64
	failed    int64
}

func (w *window) add(at int64, latMs float64) {
	w.lat.add(latMs)
	w.at = append(w.at, at)
}

func (w *window) merge(o *window) {
	w.lat.merge(&o.lat)
	w.at = append(w.at, o.at...)
	w.attempted += o.attempted
	w.failed += o.failed
}

// spanSamples is the fewest latency samples a span may hold, so that a
// span's p99 has at least ten samples beyond it; maxSpans caps the count.
const (
	spanSamples = 1000
	maxSpans    = 100
	minSpans    = 10
)

// spans picks the sub-window count for a window of n latency samples.
func spans(n int) int {
	return min(maxSpans, max(minSpans, n/spanSamples))
}

// quiet returns, over k sub-windows, the median of the p50 latency and the
// lower quartiles of the p99 latency and of the mean latency, in ms: a
// diagnostic beside the whole-window figures. On a shared host whose
// neighbours take the CPU for milliseconds at a time, one such stall lifts
// only the sub-window it lands in, so these read stretches without a host
// stall. They also hide a tail the system causes in up to three quarters
// of the sub-windows, which is why the end-to-end metrics do not use them.
func (w *window) quiet(k int) (p50, p99, mean float64) {
	a, b, c := w.perWindow(k)
	return quantileOf(a, 0.5), quantileOf(b, 0.25), quantileOf(c, 0.25)
}

// settled returns the median over sub-windows of the p99 latency, the
// stricter reading a max-rate rung must pass.
func (w *window) settled() float64 {
	_, b, _ := w.perWindow(rungWindows)
	return quantileOf(b, 0.5)
}

// rungWindows is the sub-window count for a max-rate rung.
const rungWindows = 10

// perWindow returns each non-empty sub-window's p50, p99 and mean, in ms,
// over k sub-windows.
func (w *window) perWindow(k int) (p50s, p99s, means []float64) {
	parts := w.split(k)
	for i := range parts {
		if parts[i].n() == 0 {
			continue
		}
		p50s = append(p50s, parts[i].quantile(0.5))
		p99s = append(p99s, parts[i].quantile(0.99))
		means = append(means, parts[i].mean())
	}
	return p50s, p99s, means
}

// split partitions the latency samples into k spans of equal length in
// intended send time.
func (w *window) split(k int) []samples {
	parts := make([]samples, k)
	if len(w.at) == 0 {
		return parts
	}
	lo, hi := w.at[0], w.at[0]
	for _, t := range w.at {
		lo, hi = min(lo, t), max(hi, t)
	}
	span := hi - lo + 1
	for i, t := range w.at {
		j := int((t - lo) * int64(k) / span)
		parts[j].add(w.lat.xs[i])
	}
	return parts
}

// trial is one open-loop run at a fixed offered rate.
type trial struct {
	rate     float64 // offered, ops/s
	achieved float64 // released ops / elapsed, ops/s
	win      window
	sent     int
	behind   bool
	aborted  bool
	maxLag   time.Duration
}

// pass applies the max_rate_hz criteria: p99 (median over sub-windows)
// within the limit, the generator on schedule, and no failed operation.
func (t *trial) pass(limit time.Duration) bool {
	return !t.aborted && !t.behind && t.win.failed == 0 && t.win.lat.n() > 0 && t.p99() <= ms(limit)
}

func (t *trial) p99() float64 { return t.win.settled() }

// A trial stops early once the generator is abortFactor limits late, or
// the observed latency has stayed above abortFactor limits for abortHold:
// the rung has clearly failed, and letting the backlog grow would only
// lengthen the drain. One slow sample (a recovered loss) does not abort.
const (
	abortFactor = 4
	abortHold   = 200 * time.Millisecond
)

// runTrial offers rate ops/s to tg for dur. With failFast, an overloaded
// trial stops early; the fixed-rate phase measures its full duration.
func runTrial(tg target, rate float64, dur, limit time.Duration, failFast bool) trial {
	tg.begin()
	start := time.Now().Add(time.Millisecond)
	p := newPacer(start, rate, limit)
	tr := trial{rate: rate}
	var sendErrs int64
	var overSince time.Time
	for i := 0; ; i++ {
		if p.due(i).Sub(start) >= dur {
			break
		}
		intended, lag := p.wait(i)
		if err := tg.send(intended); err != nil {
			sendErrs++
		}
		tr.sent++
		if !failFast {
			continue
		}
		switch {
		case tg.recent() <= abortFactor*limit:
			overSince = time.Time{}
		case overSince.IsZero():
			overSince = time.Now()
		}
		if lag > abortFactor*limit || (!overSince.IsZero() && time.Since(overSince) > abortHold) {
			tr.aborted = true
			break
		}
	}
	elapsed := time.Since(start)
	tr.win = tg.finish()
	tr.win.failed += sendErrs
	tr.achieved = float64(tr.sent) / elapsed.Seconds()
	tr.behind = p.behind()
	tr.maxLag = p.maxLag
	return tr
}

// searches is how many independent bisections make up max_rate_hz: the
// result is their median, so one search thrown off by a spell of stolen
// CPU on the shared host does not move it.
const searches = 3

// searchMaxRate runs independent bisections of the ascending ladder, each
// for the highest rung that passes (a failed rung gets a second try), and
// returns the median of their results — each the achieved rate of its
// best passing trial, or fallback when none passes — and every trial run.
func searchMaxRate(tg target, ladder []float64, dur, limit time.Duration, fallback float64) (float64, []trial) {
	sort.Float64s(ladder)
	var results []float64
	var all []trial
	for s := 0; s < searches; s++ {
		best := fallback
		lo, hi := -1, len(ladder)
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			ok := false
			for try := 0; try < 2 && !ok; try++ {
				t := runTrial(tg, ladder[mid], dur, limit, true)
				all = append(all, t)
				if ok = t.pass(limit); ok {
					best = t.achieved
				}
			}
			if ok {
				lo = mid
			} else {
				hi = mid
			}
		}
		results = append(results, best)
	}
	return quantileOf(results, 0.5), all
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// drainIdle is how long a drain waits without progress before giving up
// on the rest: a rung that lost operations should not cost the full
// timeout.
const drainIdle = 500 * time.Millisecond

// drainWait polls progress until it reports done, makes no progress for
// drainIdle, or timeout passes.
func drainWait(timeout time.Duration, progress func() (count int64, done bool)) {
	start := time.Now()
	last, lastAt := int64(-1), start
	waitUntil(timeout, func() bool {
		n, done := progress()
		if n != last {
			last, lastAt = n, time.Now()
		}
		return done || time.Since(lastAt) > drainIdle
	})
}
