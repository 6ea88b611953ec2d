package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"adamant/internal/ann"
	"adamant/internal/core"
	"adamant/internal/dds"
	"adamant/internal/netem"
	"adamant/internal/probe"
	"adamant/internal/transport"
)

// adamantNode is the ADAMANT start-up configurator: the trained network
// from data/adamant.ann behind core.Controller, fed a fixed environment so
// its pick is reproducible. Every workload builds one to check the model's
// layer shape and the pick against workloads.json; dds-udp deploys the
// pick and times the decisions.
type adamantNode struct {
	net   *ann.Network
	ctl   *core.Controller
	input []float64 // the decision's feature vector, for timing Classify alone
	spec  transport.Spec
}

// The fixed environment the controller decides for: the paper's default
// three readers on a 3 GHz node with a 1 Gb/s link, 3% loss.
var decideParams = core.AppParams{
	Receivers: 3, RateHz: 100, LossPct: 3, Impl: dds.ImplB, Metric: core.MetricReLate2,
}

func newAdamantNode(exp *expectations) (*adamantNode, error) {
	net, err := ann.LoadFile(exp.ANNModel)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", exp.ANNModel, err)
	}
	if got := layerShape(net.Layers()); got != exp.ANNShape {
		return nil, fmt.Errorf("%s has layers %s, workloads.json records %s", exp.ANNModel, got, exp.ANNShape)
	}
	sel, err := core.NewANNSelector(net)
	if err != nil {
		return nil, err
	}
	ctl, err := core.NewController(probe.ForMachine(netem.PC3000, netem.Gbps1), sel, decideParams)
	if err != nil {
		return nil, err
	}
	d, err := ctl.Decide()
	if err != nil {
		return nil, err
	}
	if got := d.Spec.String(); got != exp.TransportSpec {
		return nil, fmt.Errorf("controller chose %s, workloads.json records %s", got, exp.TransportSpec)
	}
	classifier, err := ann.LoadFile(exp.ANNModel) // Run reuses scratch: one network per caller
	if err != nil {
		return nil, err
	}
	return &adamantNode{net: classifier, ctl: ctl, input: d.Features.Vector(), spec: d.Spec}, nil
}

func layerShape(layers []int) string {
	parts := make([]string, len(layers))
	for i, n := range layers {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, "-")
}

// decideTimes are Controller.Decide and ann.Network.Classify timings, µs.
type decideTimes struct {
	decide, classify samples
	chunkP50         []float64
}

// Decisions are timed in decideChunks chunks of decideChunk back-to-back
// calls, decidePause apart, and decide_p50_us is the upper quartile of the
// chunk medians. A stall lands in a few calls and leaves a chunk's median
// alone; but on this shared host the CPU also runs about 1.5x faster for
// spells of up to seconds, and the upper quartile reads the usual speed
// unless such a spell covers most of the 1.5 s the chunks span.
const (
	decideChunks = 24
	decideChunk  = 500
	decidePause  = 60 * time.Millisecond
)

// timeDecisions times Controller.Decide and Network.Classify calls on an
// otherwise idle process (the paper's decision-time claim is for
// start-up, before traffic flows). A pick that differs from the first
// decision's is an error.
func (a *adamantNode) timeDecisions(tr *tracer) (*decideTimes, error) {
	dt := &decideTimes{}
	want := a.spec.String()
	var req int64
	for c := 0; c < decideChunks; c++ {
		if c > 0 {
			time.Sleep(decidePause)
		}
		var chunk samples
		for i := 0; i < decideChunk; i++ {
			t0 := time.Now()
			d, err := a.ctl.Decide()
			t1 := time.Now()
			_, cerr := a.net.Classify(a.input)
			t2 := time.Now()
			if err == nil {
				err = cerr
			}
			if err != nil {
				return nil, err
			}
			if i == 0 && d.Spec.String() != want {
				return nil, fmt.Errorf("controller changed its pick from %s to %s", want, d.Spec)
			}
			chunk.add(us(t1.Sub(t0)))
			dt.classify.add(us(t2.Sub(t1)))
			tr.record("core.decide", noSpan, req, t0, t1)
			tr.record("ann.classify", noSpan, req, t1, t2)
			req++
		}
		dt.decide.merge(&chunk)
		dt.chunkP50 = append(dt.chunkP50, chunk.quantile(0.5))
	}
	return dt, nil
}
