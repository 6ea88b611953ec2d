// Package bench measures the simulation kernel's event-processing
// throughput: ns/event, allocs/event, and events/sec for the wheel+heap
// scheduler against the pre-overhaul container/heap baseline, across queue
// depths and a netem-shaped packet-hop mix. The adamant-bench -sim harness
// runs these workloads and emits BENCH_sim.json so the sim-throughput
// trajectory is pinned the same way BENCH_ann.json pins query latency.
//
// Both implementations run identical deterministic workloads: the same
// splitmix64 delay streams, consumed in the same order (the kernels fire
// events in the same order by the determinism contract, so the streams stay
// aligned). Workload parameters are modeled on what internal/netem
// schedules per packet hop: arrival and CPU-done callbacks µs–ms ahead,
// sprinkled with canceled-and-rearmed protocol timers tens of ms out.
package bench

import (
	"runtime"
	"time"

	"adamant/internal/env"
	"adamant/internal/netem"
	"adamant/internal/sim"
	"adamant/internal/wire"
)

// Result summarizes one timed workload run.
type Result struct {
	Events         uint64  `json:"events"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	EventsPerSec   float64 `json:"events_per_sec"`
}

// Comparison pairs the current kernel against the container/heap baseline
// on the same workload.
type Comparison struct {
	Kernel   Result `json:"kernel"`
	Baseline Result `json:"baseline_heap"`
	// Speedup is baseline ns/event divided by kernel ns/event.
	Speedup float64 `json:"speedup"`
}

// SweepPoint is one queue-depth cell of the churn sweep.
type SweepPoint struct {
	Depth int `json:"depth"`
	Comparison
}

// measure times run, attributing wall clock and allocator traffic to the
// number of events run reports having fired.
func measure(run func() uint64) Result {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	events := run()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	if events == 0 {
		return Result{}
	}
	ns := float64(elapsed.Nanoseconds()) / float64(events)
	res := Result{
		Events:         events,
		NsPerEvent:     ns,
		AllocsPerEvent: float64(m1.Mallocs-m0.Mallocs) / float64(events),
	}
	if elapsed > 0 {
		res.EventsPerSec = float64(events) / elapsed.Seconds()
	}
	return res
}

// splitmix64 is the deterministic delay stream shared by both kernels.
type splitmix64 struct{ state uint64 }

func (s *splitmix64) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// churnDelay is the queue-sweep delay mix: 80% wheel-range (1 µs – 10 ms),
// 20% beyond the horizon (20 – 200 ms), so every scheduler container works.
func churnDelay(rng *splitmix64) time.Duration {
	r := rng.next()
	if r%5 == 0 {
		return time.Duration(20_000+r%180_000) * time.Microsecond
	}
	return time.Duration(1+r%10_000) * time.Microsecond
}

// QueueSweep measures steady-state churn (pop one, schedule one) holding
// the pending set at each requested depth, firing at least events per cell.
func QueueSweep(depths []int, events uint64) []SweepPoint {
	points := make([]SweepPoint, 0, len(depths))
	for _, depth := range depths {
		target := events
		if min := uint64(depth) * 2; target < min {
			target = min
		}
		p := SweepPoint{Depth: depth}
		p.Kernel = measure(func() uint64 { return kernelChurn(depth, target) })
		p.Baseline = measure(func() uint64 { return baselineChurn(depth, target) })
		if p.Kernel.NsPerEvent > 0 {
			p.Speedup = p.Baseline.NsPerEvent / p.Kernel.NsPerEvent
		}
		points = append(points, p)
	}
	return points
}

func kernelChurn(depth int, target uint64) uint64 {
	k := sim.New(1)
	rng := &splitmix64{state: 42}
	var fired uint64
	var tick func()
	tick = func() {
		fired++
		if fired+uint64(depth) <= target {
			k.Schedule(churnDelay(rng), tick)
		}
	}
	for i := 0; i < depth; i++ {
		k.Schedule(churnDelay(rng), tick)
	}
	for k.Step() {
	}
	return k.Fired()
}

func baselineChurn(depth int, target uint64) uint64 {
	k := newBoxedKernel()
	rng := &splitmix64{state: 42}
	var fired uint64
	var tick func()
	tick = func() {
		fired++
		if fired+uint64(depth) <= target {
			k.schedule(churnDelay(rng), tick)
		}
	}
	for i := 0; i < depth; i++ {
		k.schedule(churnDelay(rng), tick)
	}
	k.run()
	return k.fired
}

// Hop-mix constants: the shape internal/netem gives one packet hop.
const (
	hopArrivalBase = 30 * time.Microsecond  // propagation + store-and-forward
	hopArrivalJit  = 900 * time.Microsecond // serialization spread
	hopCPUBase     = 25 * time.Microsecond  // receiver CPU cost
	hopCPUJit      = 120 * time.Microsecond
	hopGapBase     = 200 * time.Microsecond // inter-packet pacing
	hopGapJit      = 800 * time.Microsecond
	hopTimerRearm  = 8                     // packets between heartbeat rearms
	hopTimerDelay  = 50 * time.Millisecond // heartbeat distance (far heap)
)

func jitter(rng *splitmix64, base, spread time.Duration) time.Duration {
	return base + time.Duration(rng.next()%uint64(spread))
}

// HopMix measures the emulator's event shape end to end on both kernels:
// per packet a send schedules an arrival, the arrival schedules a CPU-done
// dispatch, the dispatch schedules the next send; every hopTimerRearm
// packets a flow cancels and rearms a 50 ms heartbeat, exercising the
// cancel path like the transport timer sites do.
//
// The kernel side dispatches through ScheduleArg with static callbacks and
// persistent per-flow state — the shape internal/netem uses after the
// overhaul. The baseline side allocates a fresh closure per hop — the shape
// the old kernel forced, since it had no closure-free path. The allocs/event
// gap between the two columns is therefore the netem hot-path alloc drop,
// not a workload artifact: both consume the same delay stream and fire the
// same events in the same order.
func HopMix(flows int, events uint64) Comparison {
	var c Comparison
	c.Kernel = measure(func() uint64 { return kernelHopMix(flows, events) })
	c.Baseline = measure(func() uint64 { return baselineHopMix(flows, events) })
	if c.Kernel.NsPerEvent > 0 {
		c.Speedup = c.Baseline.NsPerEvent / c.Kernel.NsPerEvent
	}
	return c
}

// hopFlow is one flow's persistent dispatch state; rng, fired, and target
// are shared across all flows so the delay stream and event budget match
// the baseline's closure-captured outer variables exactly.
type hopFlow struct {
	k       *sim.Kernel
	rng     *splitmix64
	fired   *uint64
	target  uint64
	timer   sim.Timer
	packets int
}

func (f *hopFlow) budget() bool {
	*f.fired++
	return *f.fired+3 <= f.target // each packet costs three events
}

func hopHeartbeat() {}

func hopSend(a any) {
	f := a.(*hopFlow)
	if !f.budget() {
		return
	}
	f.k.ScheduleArg(jitter(f.rng, hopArrivalBase, hopArrivalJit), hopArrive, f)
}

func hopArrive(a any) {
	f := a.(*hopFlow)
	if !f.budget() {
		return
	}
	f.k.ScheduleArg(jitter(f.rng, hopCPUBase, hopCPUJit), hopCPUDone, f)
}

func hopCPUDone(a any) {
	f := a.(*hopFlow)
	if !f.budget() {
		return
	}
	f.packets++
	if f.packets%hopTimerRearm == 0 {
		f.timer.Stop()
		f.timer = f.k.After(hopTimerDelay, hopHeartbeat)
	}
	f.k.ScheduleArg(jitter(f.rng, hopGapBase, hopGapJit), hopSend, f)
}

func kernelHopMix(flows int, target uint64) uint64 {
	k := sim.New(1)
	rng := &splitmix64{state: 7}
	var fired uint64
	for i := 0; i < flows; i++ {
		f := &hopFlow{k: k, rng: rng, fired: &fired, target: target}
		k.ScheduleArg(jitter(rng, hopGapBase, hopGapJit), hopSend, f)
	}
	for k.Step() {
	}
	return k.Fired()
}

func baselineHopMix(flows int, target uint64) uint64 {
	k := newBoxedKernel()
	rng := &splitmix64{state: 7}
	var fired uint64
	budget := func() bool {
		fired++
		return fired+3 <= target
	}
	hb := func() {}
	for f := 0; f < flows; f++ {
		var timer *boxedEvent
		packets := 0
		var send func()
		send = func() {
			if !budget() {
				return
			}
			k.schedule(jitter(rng, hopArrivalBase, hopArrivalJit), func() {
				if !budget() {
					return
				}
				k.schedule(jitter(rng, hopCPUBase, hopCPUJit), func() {
					if !budget() {
						return
					}
					packets++
					if packets%hopTimerRearm == 0 {
						if timer != nil {
							timer.cancel()
						}
						timer = k.after(hopTimerDelay, hb)
					}
					k.schedule(jitter(rng, hopGapBase, hopGapJit), send)
				})
			})
		}
		k.schedule(jitter(rng, hopGapBase, hopGapJit), send)
	}
	k.run()
	return k.fired
}

// NetemPump measures the real emulator on the current kernel: nodes nodes
// on a 100 Mb LAN with 5% end-host loss, one publisher multicasting
// payload-carrying packets until the kernel has fired at least events
// events. Events/sec here is the whole emulation data path — scheduler,
// closure-free dispatch, loss bitset, CPU and link modeling.
func NetemPump(nodes int, events uint64, payload int) (Result, error) {
	k := sim.New(1)
	e := env.NewSim(k)
	net, err := netem.New(e, netem.Config{Bandwidth: netem.Mbps100})
	if err != nil {
		return Result{}, err
	}
	for i := 0; i < nodes; i++ {
		n := net.AddNode(netem.PC3000)
		if i > 0 {
			n.SetLoss(5)
			n.SetHandler(func(wire.NodeID, *wire.Packet) {})
		}
	}
	sender := net.Node(0)
	body := make([]byte, payload)
	var seq uint64
	var pump func()
	pump = func() {
		if k.Fired() >= events {
			return
		}
		seq++
		// A fresh packet per send, as a real sender builds one: the
		// network owns a packet once it is handed to Multicast. The
		// payload bytes are never written, so every packet shares them.
		pkt := &wire.Packet{Type: wire.TypeData, Src: 0, Stream: 1, Seq: seq, SentAt: k.Now(), Payload: body}
		if err := sender.Multicast(pkt); err != nil {
			panic(err)
		}
		k.Schedule(500*time.Microsecond, pump)
	}
	return measure(func() uint64 {
		k.Schedule(0, pump)
		for k.Step() {
		}
		return k.Fired()
	}), nil
}
