package main

import (
	"encoding/json"
	"fmt"

	"adamant/internal/metrics"
)

// e2eUnits are the end-to-end metrics a workload computes and prints
// (decide_p50_us only on dds-udp, the one workload that runs the ADAMANT
// decision path). BENCHMARK.json's end_to_end section gates a subset of
// them, those steady enough on the benchmark host to carry a regression
// bound; a traced run also reports all of them as per-layer run.<name>
// metrics.
var e2eUnits = map[string]string{
	"setup_s":        "s",
	"latency_p50_ms": "ms",
	"latency_p99_ms": "ms",
	"max_rate_hz":    "1/s",
	"relate2":        "us",
	"decide_p50_us":  "us",
	"cpu_us_per_op":  "us",
	"peak_rss_mb":    "MB",
}

var e2eNames = []string{"setup_s", "latency_p50_ms", "latency_p99_ms", "max_rate_hz", "relate2", "decide_p50_us", "cpu_us_per_op", "peak_rss_mb"}

// spanNames are the layer boundaries the traced run records; each gets a
// self_us.<name> metric.
var spanNames = []string{
	"broker.op", "broker.client.publish", "broker.client.flush", "broker.subscribe", "broker.route.converge",
	"core.decide", "ann.classify",
	"dds.sample", "env.post_wait", "dds.write", "udpnet.multicast", "udpnet.handle", "dds.deliver",
	"experiment.build_dataset", "experiment.run",
}

// outcome is one workload run's result. Per-layer metrics a workload
// leaves unset are layers it does not exercise, reported as 0.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	notes     []string
	errs      []string // failed correctness checks
	attempted int64
	failed    int64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// outcomeJSON is how a child process hands its outcome to the parent.
type outcomeJSON struct {
	E2E       map[string]float64 `json:"e2e"`
	Layer     map[string]float64 `json:"layer"`
	Notes     []string           `json:"notes"`
	Errs      []string           `json:"errs"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
}

func (o *outcome) MarshalJSON() ([]byte, error) {
	return json.Marshal(outcomeJSON{o.e2e, o.layer, o.notes, o.errs, o.attempted, o.failed})
}

func (o *outcome) UnmarshalJSON(b []byte) error {
	j := outcomeJSON{E2E: o.e2e, Layer: o.layer}
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*o = outcome{j.E2E, j.Layer, j.Notes, j.Errs, j.Attempted, j.Failed}
	return nil
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) errorf(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

// setLatency fills the latency metrics from the fixed-rate window: the
// nearest-rank p50 and p99 over every sample, from intended send time, and
// ReLate2 (mean latency in µs times loss percent plus one), the failed
// operations counting as lost. A note adds the same window read over its
// k sub-windows, where a stall of the shared host lifts only the
// sub-window it lands in.
func (o *outcome) setLatency(w *window, k int) {
	lossPct := 0.0
	if w.attempted > 0 {
		lossPct = 100 * float64(w.failed) / float64(w.attempted)
	}
	mean := w.lat.mean()
	// Sub-window readings first: selection reorders the samples, which
	// breaks their pairing with intended send times.
	qp50, qp99, qmean := w.quiet(k)
	o.e2e["latency_p50_ms"] = w.lat.quantile(0.5)
	o.e2e["latency_p99_ms"] = w.lat.quantile(0.99)
	o.e2e["relate2"] = metrics.ReLate2(mean*1000, lossPct)
	o.layer["run.latency_samples"] = float64(w.lat.n())
	o.notef("latency: %d samples from intended send time: p50 %.4f ms, p99 %.4f ms, mean %.4f ms",
		w.lat.n(), o.e2e["latency_p50_ms"], o.e2e["latency_p99_ms"], mean)
	o.notef("latency diagnostics over %d sub-windows: latency_p50_quiet_ms %.4f (median), latency_p99_quiet_ms %.4f and latency_mean_quiet_ms %.4f (lower quartiles)",
		k, qp50, qp99, qmean)
}

// setTrials fills the latency metrics from the fixed-rate trial and
// max_rate_hz from the ladder search, notes every trial, and fails the run
// if the fixed rate did not hold.
func (o *outcome) setTrials(ws *workloadSpec, fixed *trial, ladder []trial, maxRate float64) {
	o.setLatency(&fixed.win, spans(fixed.win.lat.n()))
	o.e2e["max_rate_hz"] = maxRate
	o.attempted += fixed.win.attempted
	o.failed += fixed.win.failed
	o.notef("fixed rate: offered %.0f/s, achieved %.1f/s, %d ops, behind=%v max_lag=%.3f ms",
		fixed.rate, fixed.achieved, fixed.sent, fixed.behind, ms(fixed.maxLag))
	if fixed.behind || fixed.win.failed > 0 {
		o.errorf("fixed-rate phase did not hold: behind=%v failed=%d of %d", fixed.behind, fixed.win.failed, fixed.win.attempted)
	}
	for _, t := range ladder {
		o.notef("ladder: offered %.0f/s achieved %.1f/s p99 %.3f ms behind=%v aborted=%v failed=%d/%d pass=%v",
			t.rate, t.achieved, t.p99(), t.behind, t.aborted, t.win.failed, t.win.attempted, t.pass(ws.limit()))
	}
	o.notef("max_rate_hz: %.1f (p99 limit %.1f ms)", maxRate, ws.P99LimitMs)
}

// setDecide fills decide_p50_us and the core/ann layer metrics.
func (o *outcome) setDecide(dt *decideTimes) {
	o.e2e["decide_p50_us"] = quantileOf(dt.chunkP50, 0.75)
	o.layer["core.decide_us.p50"] = dt.decide.quantile(0.5)
	o.layer["core.decide_us.p99"] = dt.decide.quantile(0.99)
	o.layer["ann.classify_us.p50"] = dt.classify.quantile(0.5)
	o.notef("decide: %d Controller.Decide calls in %d chunks, upper quartile of chunk p50s %.4f us", dt.decide.n(), len(dt.chunkP50), o.e2e["decide_p50_us"])
}

// setProc fills the whole-process cost metrics for ops operations:
// cpu_us_per_op is the process's user and system CPU time per operation,
// the cost of an operation whatever the host's scheduling did to its
// latency.
func (o *outcome) setProc(d procDelta, ops int64) {
	if ops > 0 {
		o.e2e["cpu_us_per_op"] = us(d.cpu) / float64(ops)
		o.layer["proc.cpu_us_per_op"] = o.e2e["cpu_us_per_op"]
		o.layer["proc.allocs_per_op"] = float64(d.allocs) / float64(ops)
	}
	o.layer["proc.gc_cycles"] = float64(d.gcs)
}

// finish computes the failure share and peak memory.
func (o *outcome) finish() {
	if o.attempted > 0 {
		o.layer["run.failed_frac"] = float64(o.failed) / float64(o.attempted)
	}
	o.notef("failed_frac: %d failed of %d attempted", o.failed, o.attempted)
}
