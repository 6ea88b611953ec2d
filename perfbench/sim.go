package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"adamant/internal/core"
	"adamant/internal/experiment"
)

// A sim-dataset request is one experiment.BuildDataset call over simCombos
// environments sampled from the paper's Table 1 x Table 2 space, every
// candidate protocol, simRuns runs each: 7 x simCombos emulated runs.
// Requests are kept small so a run measures many of them, each with a
// fresh seeded sample, and the per-request time averages over the space.
const (
	simCombos  = 4
	simRuns    = 1
	simSamples = 100
)

// simWindows is the sub-window count for the per-request latency: a run
// holds about a hundred requests.
const simWindows = 10

func simOptions(seed int64, jobs int) experiment.DatasetOptions {
	return experiment.DatasetOptions{Combos: simCombos, Runs: simRuns, Samples: simSamples, Seed: seed, Jobs: jobs}
}

// repSeed derives request i's dataset seed from the run seed (never 0,
// which BuildDataset would replace with its default).
func repSeed(seed int64, i int) int64 {
	s := int64(mix64(uint64(seed)*0x100000001B3+uint64(i)) >> 1)
	if s == 0 {
		s = 1
	}
	return s
}

// buildDataset builds one dataset, checks its rows and returns the
// sha256 of its CSV serialization.
func buildDataset(opts experiment.DatasetOptions) (string, error) {
	rows, err := experiment.BuildDataset(opts)
	if err != nil {
		return "", err
	}
	if len(rows) != 2*opts.Combos {
		return "", fmt.Errorf("dataset has %d rows, want %d", len(rows), 2*opts.Combos)
	}
	for _, r := range rows {
		if r.Winner < 0 || r.Winner >= core.NumCandidates || len(r.Scores) != core.NumCandidates {
			return "", fmt.Errorf("malformed row: winner %d, %d scores", r.Winner, len(r.Scores))
		}
		for _, s := range r.Scores {
			// ReLate2Jit is 0 when a run's latencies have no jitter.
			if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
				return "", fmt.Errorf("row score %v is not a finite, non-negative composite metric", s)
			}
		}
	}
	var buf bytes.Buffer
	if err := experiment.WriteCSV(&buf, rows); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

func runSimDataset(p params, tr *tracer) (*outcome, error) {
	o := newOutcome()
	if _, err := newAdamantNode(p.exp); err != nil {
		return nil, err
	}
	jobs := runtime.NumCPU()
	// Set-up is the recorded golden request, the same work at every seed,
	// which must reproduce the recorded dataset.
	golden := func() (struct{}, time.Duration, error) {
		t0 := time.Now()
		hash, err := buildDataset(simOptions(p.spec.GoldenSeed, jobs))
		d := time.Since(t0)
		if err == nil {
			err = checkHash(fmt.Sprintf("dataset for golden seed %d", p.spec.GoldenSeed), hash, p.spec.GoldenSHA)
		}
		return struct{}{}, d, err
	}
	if _, err := repeatSetup(o, 50, golden, func(struct{}) {}); err != nil {
		return nil, err
	}
	var w window // ms per request, tagged with its start
	var firstHash string
	runs := 0
	runtime.GC() // start clean of set-up garbage
	p0 := readProc()
	start := time.Now()
	deadline := start.Add(time.Duration(p.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		hash, err := buildDataset(simOptions(repSeed(p.seed, i), jobs))
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		tr.record("experiment.build_dataset", noSpan, int64(i), t0, t1)
		w.add(int64(t0.Sub(start)), ms(t1.Sub(t0)))
		runs += core.NumCandidates * simCombos * simRuns
		if i == 0 {
			firstHash = hash
		}
	}
	wall := time.Since(start)
	p1 := readProc()
	o.e2e["peak_rss_mb"] = peakRSSMB()
	w.attempted = int64(w.lat.n())
	o.setLatency(&w, simWindows)
	o.e2e["max_rate_hz"] = quietThroughput(&w, core.NumCandidates*simCombos*simRuns)
	o.layer["experiment.runs_per_s"] = float64(runs) / wall.Seconds()
	o.attempted += int64(runs)
	o.setProc(p0.to(p1), int64(runs))
	o.notef("requests: %d datasets of %d environments x %d candidates x %d runs (%d samples each), %d emulated runs in %.3f s (%.1f runs/s overall, %.1f in the upper-quartile sub-window), jobs=%d",
		w.lat.n(), simCombos, core.NumCandidates, simRuns, simSamples, runs, wall.Seconds(), o.layer["experiment.runs_per_s"], o.e2e["max_rate_hz"], jobs)

	// The dataset is byte-identical at any worker count: rebuild the
	// first request serially.
	if hash, err := buildDataset(simOptions(repSeed(p.seed, 0), 1)); err != nil || hash != firstHash {
		o.failed++
		o.errorf("request 0 rebuilt with jobs=1: sha256 %s (err %v), with jobs=%d: %s", hash, err, jobs, firstHash)
	}
	o.attempted++

	if tr != nil {
		if err := probeRuns(p, jobs, tr, o); err != nil {
			return nil, err
		}
	}
	o.finish()
	return o, nil
}

// probeRuns times individual emulated runs — the candidate sweep of the
// first request's environments, run through the same worker pool
// BuildDataset uses — for the experiment and netem per-layer metrics.
func probeRuns(p params, jobs int, tr *tracer, o *outcome) error {
	combos := experiment.SampleSpace(simCombos, repSeed(p.seed, 0))
	var cfgs []experiment.Config
	for ci, c := range combos {
		for k, spec := range core.Candidates() {
			cfgs = append(cfgs, experiment.Config{
				Machine: c.Machine, Bandwidth: c.Bandwidth, Impl: c.Impl, LossPct: c.LossPct,
				Receivers: c.Receivers, RateHz: c.RateHz, Samples: simSamples, Protocol: spec,
				Seed: repSeed(p.seed, ci*core.NumCandidates+k),
			})
		}
	}
	var mu sync.Mutex
	var runMs samples
	var tx uint64
	err := (&experiment.Runner{Jobs: jobs}).ForEach(len(cfgs), func(i int) error {
		t0 := time.Now()
		_, rep, err := experiment.RunDetailed(cfgs[i])
		t1 := time.Now()
		if err != nil {
			return err
		}
		tr.record("experiment.run", noSpan, int64(i), t0, t1)
		mu.Lock()
		runMs.add(ms(t1.Sub(t0)))
		tx += rep.TotalTx()
		mu.Unlock()
		return nil
	})
	if err != nil {
		return fmt.Errorf("probe runs: %w", err)
	}
	o.layer["experiment.run_ms.p50"] = runMs.quantile(0.5)
	o.layer["experiment.run_ms.p99"] = runMs.quantile(0.99)
	o.layer["netem.tx_packets_per_run"] = float64(tx) / float64(len(cfgs))
	return nil
}

// quietThroughput returns emulated runs per second in the upper-quartile
// sub-window of the requests in w (the same quietest-quarter reading as
// the latency metrics), each request carrying runsPer runs.
func quietThroughput(w *window, runsPer int) float64 {
	var rates []float64
	for _, part := range w.split(simWindows) {
		var busy float64
		for _, d := range part.xs {
			busy += d
		}
		if busy > 0 {
			rates = append(rates, float64(runsPer*part.n())/(busy/1000))
		}
	}
	s := samples{xs: rates}
	return s.quantile(0.75)
}
