// Command perfbench is the repository benchmark. It runs one named
// workload against the public APIs of the broker, the ADAMANT DDS stack
// and the emulator, checks that every output is correct, and prints every
// metric by name and unit; the last line of standard output is a JSON
// result. Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload broker-fanout --seed 1 --seconds 16 --trace 0
//
// Each workload runs in a child process of its own. --trace 1 runs the
// workload untraced and then traced, and reports the per-layer metrics,
// each layer's self time, and the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// expectations is perfbench/workloads.json: what BENCHMARK.json has no
// key for. Each workload's load parameters and the facts a run must
// reproduce, and for every per-layer metric the end-to-end metric it
// should move.
type expectations struct {
	ANNModel      string                   `json:"ann_model"`
	ANNShape      string                   `json:"ann_shape"`
	TransportSpec string                   `json:"transport_spec"`
	Workloads     map[string]*workloadSpec `json:"workloads"`
	Moves         map[string]string        `json:"moves"`
}

type workloadSpec struct {
	Name         string  `json:"-"`
	FixedRateHz  float64 `json:"fixed_rate_hz"`
	LadderFromHz float64 `json:"ladder_from_hz"`
	LadderToHz   float64 `json:"ladder_to_hz"`
	P99LimitMs   float64 `json:"p99_limit_ms"`
	GoldenSeed   int64   `json:"golden_seed"`
	GoldenSHA    string  `json:"golden_csv_sha256"`
}

func (w *workloadSpec) limit() time.Duration {
	return time.Duration(w.P99LimitMs * float64(time.Millisecond))
}

// ladder returns the offered rates max_rate_hz searches: 5% steps from
// LadderFromHz up to LadderToHz, rounded to whole ops/s.
func (w *workloadSpec) ladder() []float64 {
	var rates []float64
	for x := w.LadderFromHz; x > 0 && math.Round(x) <= w.LadderToHz; x *= 1.05 {
		rates = append(rates, math.Round(x))
	}
	return rates
}

// benchmarkFile is the part of BENCHMARK.json the run checks itself
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type params struct {
	seed    int64
	seconds float64
	spec    *workloadSpec
	exp     *expectations
}

type workloadFunc func(p params, tr *tracer) (*outcome, error)

var workloadFuncs = map[string]workloadFunc{
	"broker-fanout":  runBrokerFanout,
	"broker-routing": runBrokerRouting,
	"dds-udp":        runDDS,
	"sim-dataset":    runSimDataset,
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 16, "measured seconds per workload")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	part := flag.String("part", "", "internal: run one measured part (plain or traced) in this process and print it as JSON")
	flag.Parse()
	if *seed == 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) || (*part != "" && *part != "plain" && *part != "traced") {
		fmt.Fprintln(os.Stderr, "perfbench: need a non-zero --seed, positive --seconds, --trace 0 or 1, and --part plain or traced if any")
		return 2
	}
	bench, exp, err := loadDeclarations()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range bench.Workloads {
			names = append(names, w.Name)
		}
	}
	for _, name := range names {
		if exp.Workloads[name] == nil || workloadFuncs[name] == nil {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
			return 2
		}
	}
	if *part != "" {
		p := params{seed: *seed, seconds: *seconds, spec: exp.Workloads[names[0]], exp: exp}
		return runPart(p, *part == "traced", bench)
	}
	trace := *traceFlag == 1
	prov := provenance(*seed, *seconds, trace, names, exp)
	pj, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", pj)

	decls := bench.EndToEnd
	if trace {
		decls = bench.PerLayer
	}
	result := map[string]any{}
	metrics := map[string]map[string]any{}
	var attempted, failed int64
	correct := true
	for _, name := range names {
		out, err := runWorkload(name, *seed, *seconds, trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		vals := out.e2e
		if trace {
			vals = out.layer
		}
		prefix := ""
		if len(names) > 1 {
			prefix = name + "/"
		}
		for _, note := range out.notes {
			fmt.Printf("%s%s\n", prefix, note)
		}
		if !trace {
			for _, n := range e2eNames {
				if v, ok := out.e2e[n]; ok {
					fmt.Printf("%se2e %-47s %14.6g %s\n", prefix, n, v, e2eUnits[n])
				}
			}
		}
		for _, d := range decls {
			v, ok := vals[d.Name]
			if !ok && !trace {
				fmt.Fprintf(os.Stderr, "perfbench: %s did not produce metric %s\n", name, d.Name)
				return 1
			}
			// A layer the workload leaves idle reports 0.
			fmt.Printf("%smetric %-44s %14.6g %s\n", prefix, d.Name, v, d.Unit)
			metrics[prefix+d.Name] = map[string]any{"value": v, "unit": d.Unit}
		}
		for _, e := range out.errs {
			fmt.Printf("%sCHECK FAILED: %s\n", prefix, e)
		}
		attempted += out.attempted
		failed += out.failed
		correct = correct && len(out.errs) == 0
	}
	result["correct"] = correct
	result["attempted"] = attempted
	result["failed"] = failed
	result["metrics"] = metrics
	rj, _ := json.Marshal(result)
	fmt.Println(string(rj))
	if !correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload in a child process of its own, so that
// its peak memory and its start-up state are its own. For --trace 1 it
// runs an untraced and a traced child of half the length each: per-layer
// metrics come from the traced one, and the difference between the two is
// the tracing overhead.
func runWorkload(name string, seed int64, seconds float64, trace bool) (*outcome, error) {
	if !trace {
		return runChild(name, seed, seconds, "plain")
	}
	plain, err := runChild(name, seed, seconds/2, "plain")
	if err != nil {
		return nil, err
	}
	traced, err := runChild(name, seed, seconds/2, "traced")
	if err != nil {
		return nil, err
	}
	for _, n := range plain.notes {
		traced.notes = append(traced.notes, "untraced: "+n)
	}
	traced.errs = append(plain.errs, traced.errs...)
	traced.attempted += plain.attempted
	traced.failed += plain.failed
	for _, n := range e2eNames {
		traced.layer["run."+n] = traced.e2e[n]
		base, v := plain.e2e[n], traced.e2e[n]
		pct := 0.0
		if base != 0 {
			pct = (v/base - 1) * 100
		}
		traced.layer["trace.overhead_pct."+n] = pct
	}
	return traced, nil
}

// runChild re-executes this binary with --part and reads the outcome it
// prints as its last line. The child's diagnostics go to standard error.
func runChild(name string, seed int64, seconds float64, part string) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--part", part)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s part: %w", part, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	out := newOutcome()
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), out); err != nil {
		return nil, fmt.Errorf("%s part printed no outcome: %w", part, err)
	}
	return out, nil
}

// runPart runs the workload in this process, traced or not, and prints its
// outcome as one JSON line.
func runPart(p params, traced bool, bench *benchmarkFile) int {
	var tr *tracer
	if traced {
		tr = newTracer(time.Now(), 1<<21)
	}
	out, err := workloadFuncs[p.spec.Name](p, tr)
	if err == nil && traced {
		err = out.addTrace(tr, p)
	}
	if err == nil {
		err = undeclaredLayers(out, bench)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", p.spec.Name, err)
		return 1
	}
	j, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", p.spec.Name, err)
		return 1
	}
	fmt.Println(string(j))
	return 0
}

// addTrace adds the traced run's layer self times and writes its spans.
func (o *outcome) addTrace(tr *tracer, p params) error {
	layers := tr.analyze()
	for _, name := range spanNames {
		lt := layers[name]
		if lt == nil {
			lt = &layerTime{}
		}
		o.layer["self_us."+name] = lt.self.mean()
	}
	o.layer["trace.spans"] = float64(len(tr.spans))
	o.layer["trace.dropped_spans"] = float64(tr.dropped)
	path := filepath.Join(buildDir(), "traces", fmt.Sprintf("%s-seed%d.csv", p.spec.Name, p.seed))
	if err := tr.writeFile(path); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	o.notef("trace: %d spans written to %s", len(tr.spans), path)
	o.notes = append(o.notes, selfTimeTable(layers)...)
	return nil
}

// undeclaredLayers fails a run that sets a per-layer metric BENCHMARK.json
// does not declare: a misspelt name would otherwise go unreported.
func undeclaredLayers(o *outcome, bench *benchmarkFile) error {
	declared := map[string]bool{}
	for _, d := range bench.PerLayer {
		declared[d.Name] = true
	}
	for n := range o.layer {
		if !declared[n] {
			return fmt.Errorf("per-layer metric %s is not declared in BENCHMARK.json", n)
		}
	}
	return nil
}

// selfTimeTable renders each recorded layer's span count, mean duration
// and mean self time.
func selfTimeTable(layers map[string]*layerTime) []string {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	lines := []string{fmt.Sprintf("trace %-28s %10s %12s %12s", "span", "count", "mean_us", "self_us")}
	for _, n := range names {
		lt := layers[n]
		lines = append(lines, fmt.Sprintf("trace %-28s %10d %12.2f %12.2f", n, lt.dur.n(), lt.dur.mean(), lt.self.mean()))
	}
	return lines
}

func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// loadDeclarations reads BENCHMARK.json and perfbench/workloads.json and
// fails loudly when they disagree with each other or with the metrics this
// program emits.
func loadDeclarations() (*benchmarkFile, *expectations, error) {
	var bench benchmarkFile
	if err := readJSON("BENCHMARK.json", &bench); err != nil {
		return nil, nil, err
	}
	var exp expectations
	if err := readJSON(filepath.Join("perfbench", "workloads.json"), &exp); err != nil {
		return nil, nil, err
	}
	for name, w := range exp.Workloads {
		w.Name = name
	}
	for _, w := range bench.Workloads {
		if exp.Workloads[w.Name] == nil {
			return nil, nil, fmt.Errorf("workloads.json has no entry for BENCHMARK.json workload %s", w.Name)
		}
	}
	setup := false
	for _, d := range bench.EndToEnd {
		if unit, ok := e2eUnits[d.Name]; !ok || unit != d.Unit {
			return nil, nil, fmt.Errorf("BENCHMARK.json end_to_end declares %s in %s; perfbench emits %q", d.Name, d.Unit, unit)
		}
		setup = setup || d.Name == "setup_s"
	}
	if !setup {
		return nil, nil, fmt.Errorf("BENCHMARK.json end_to_end must declare setup_s")
	}
	for _, d := range bench.PerLayer {
		if exp.Moves[d.Name] == "" && !derivedLayer(d.Name) {
			return nil, nil, fmt.Errorf("workloads.json moves has no entry for per-layer metric %s", d.Name)
		}
	}
	return &bench, &exp, nil
}

// derivedLayer reports whether name is one of the per-layer readings of an
// end-to-end metric (run.<metric>, trace.overhead_pct.<metric>), which
// move the metric they are named after.
func derivedLayer(name string) bool {
	for _, prefix := range []string{"run.", "trace.overhead_pct."} {
		if _, ok := e2eUnits[strings.TrimPrefix(name, prefix)]; ok && strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading %s (run from the repository root): %w", path, err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	return nil
}

// provenance identifies what produced a result.
func provenance(seed int64, seconds float64, trace bool, workloads []string, exp *expectations) map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				rev += "+dirty"
			}
		}
	}
	host, _ := os.Hostname()
	return map[string]any{
		"git_revision":   rev,
		"go_version":     runtime.Version(),
		"goos_goarch":    runtime.GOOS + "/" + runtime.GOARCH,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"host":           host,
		"seed":           seed,
		"seconds":        seconds,
		"trace":          trace,
		"workloads":      strings.Join(workloads, ","),
		"args":           strings.Join(os.Args[1:], " "),
		"transport_spec": exp.TransportSpec,
		"ann_shape":      exp.ANNShape,
		"ann_model":      exp.ANNModel,
	}
}
