package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adamant/internal/dds"
	"adamant/internal/env"
	"adamant/internal/transport"
	"adamant/internal/transport/protocols"
	"adamant/internal/udpnet"
	"adamant/internal/wire"
)

const (
	ddsReaders = 3 // the paper's default
	ddsTopic   = "bench/adamant"
	ddsLossPct = 3.0
	ddsSample  = 12 // bytes: sample index (4) and intended send time (8)
	ddsRing    = 1 << 16
)

// tapEndpoint wraps a node's udpnet endpoint: it times sends and the
// receive handler (transport + binding + DDS delivery), counts datagrams,
// and on reader nodes drops first-transmission DATA packets with the
// seeded loss pattern. Retransmissions are never dropped, so every loss is
// recoverable. Every method runs on the node's env goroutine.
type tapEndpoint struct {
	transport.Endpoint
	node  int
	peers int
	drop  func(node int, seq uint64) bool // nil on the writer
	rig   *ddsRig

	drops       int64
	mcast       samples // µs per Multicast
	handle      samples // µs per received packet
	parentWrite spanID  // the dds.write span a Multicast belongs to
}

func (e *tapEndpoint) Multicast(pkt *wire.Packet) error {
	t0 := time.Now()
	err := e.Endpoint.Multicast(pkt)
	t1 := time.Now()
	e.rig.datagrams.Add(int64(e.peers))
	e.mcast.add(us(t1.Sub(t0)))
	e.rig.tr.record("udpnet.multicast", e.parentWrite, int64(pkt.Seq), t0, t1)
	return err
}

func (e *tapEndpoint) Unicast(dst wire.NodeID, pkt *wire.Packet) error {
	e.rig.datagrams.Add(1)
	return e.Endpoint.Unicast(dst, pkt)
}

func (e *tapEndpoint) SetHandler(h func(src wire.NodeID, pkt *wire.Packet)) {
	e.Endpoint.SetHandler(func(src wire.NodeID, pkt *wire.Packet) {
		if e.drop != nil && e.rig.lossOn.Load() && pkt.Type == wire.TypeData && e.drop(e.node, pkt.Seq) {
			e.drops++
			return
		}
		t0 := time.Now()
		h(src, pkt)
		t1 := time.Now()
		e.handle.add(us(t1.Sub(t0)))
		e.rig.tr.record("udpnet.handle", e.rig.rootFor(pkt.Seq), int64(pkt.Seq), t0, t1)
	})
}

// ddsReaderState is one reader's receive side, run on its env goroutine
// and read by the generator under mu.
type ddsReaderState struct {
	mu     sync.Mutex
	chk    seqChecker
	win    *window
	got    int64
	recent atomic.Int64 // ns
}

// ddsRig is one stood-up ADAMANT deployment: a writer node and three
// reader nodes, each on its own RealEnv and UDP socket.
type ddsRig struct {
	base    time.Time
	tr      *tracer
	envs    []*env.RealEnv
	taps    []*tapEndpoint
	eps     []*udpnet.Endpoint
	parts   []*dds.DomainParticipant
	writer  *dds.DataWriter
	readers []*dds.DataReader
	states  []*ddsReaderState

	datagrams atomic.Int64
	// lossOn enables the injected loss once set-up is done: a lost
	// warm-up sample has no successor to reveal the gap and would wait
	// for the next heartbeat, making set-up time depend on the seed.
	lossOn atomic.Bool
	// Traced runs' per-sample records, indexed by sample index modulo
	// ddsRing: the root span and how many readers have delivered it.
	ringIdx  []atomic.Int64
	ringSpan []atomic.Int32
	ringDone []atomic.Int32

	// Writer-env-owned write timings and errors.
	writeLat  samples
	writeErrs int64
	next      int64 // next sample index (generator goroutine)
}

func (r *ddsRig) rootFor(seq uint64) spanID {
	if r.tr == nil || seq == 0 {
		return noSpan
	}
	// Transport sequence numbers start at 1 for sample index 0.
	k := int64(seq-1) % ddsRing
	if r.ringIdx[k].Load() != int64(seq-1) {
		return noSpan
	}
	return spanID(r.ringSpan[k].Load())
}

// onEnv runs fn on e's goroutine and waits for it.
func onEnv(e *env.RealEnv, fn func()) {
	e.Post(fn)
	e.Barrier()
}

func newDDSRig(p params, spec transport.Spec, tr *tracer) (*ddsRig, error) {
	r := &ddsRig{
		base: time.Now(), tr: tr,
	}
	if tr != nil {
		r.ringIdx, r.ringSpan, r.ringDone = make([]atomic.Int64, ddsRing), make([]atomic.Int32, ddsRing), make([]atomic.Int32, ddsRing)
		for k := range r.ringIdx {
			r.ringIdx[k].Store(-1)
		}
	}
	reg := protocols.MustRegistry()
	nodes := ddsReaders + 1
	for i := 0; i < nodes; i++ {
		e := env.NewReal(p.seed + int64(i))
		r.envs = append(r.envs, e)
		ep, err := udpnet.New(e, wire.NodeID(i), "127.0.0.1:0", nil)
		if err != nil {
			r.close()
			return nil, err
		}
		r.eps = append(r.eps, ep)
		tap := &tapEndpoint{Endpoint: ep, node: i, peers: nodes - 1, rig: r}
		if i > 0 {
			seed := mix64(uint64(p.seed))
			tap.drop = func(node int, seq uint64) bool {
				return float64(mix64(seed^uint64(node)<<48^seq)>>11)/(1<<53) < ddsLossPct/100
			}
		}
		r.taps = append(r.taps, tap)
	}
	for i, ep := range r.eps {
		for j, other := range r.eps {
			if i != j {
				ep.SetPeerAddr(wire.NodeID(j), other.LocalAddr())
			}
		}
	}
	readerIDs := make([]wire.NodeID, ddsReaders)
	for i := range readerIDs {
		readerIDs[i] = wire.NodeID(i + 1)
	}
	var err error
	for i := 0; i < nodes && err == nil; i++ {
		i := i
		onEnv(r.envs[i], func() {
			var part *dds.DomainParticipant
			part, err = dds.NewParticipant(dds.ParticipantConfig{
				Env: r.envs[i], Endpoint: r.taps[i], Registry: reg, Transport: spec, Impl: decideParams.Impl,
				SenderID: 0, Receivers: transport.StaticReceivers(readerIDs...),
			})
			if err != nil {
				return
			}
			r.parts = append(r.parts, part)
			var topic *dds.Topic
			if topic, err = part.CreateTopic(ddsTopic, dds.TopicQoS{Reliability: dds.Reliable}); err != nil {
				return
			}
			if i == 0 {
				r.writer, err = part.CreateDataWriter(topic, dds.WriterQoS{Reliability: dds.Reliable})
				return
			}
			st := &ddsReaderState{win: &window{}}
			r.states = append(r.states, st)
			var rd *dds.DataReader
			// KEEP_ALL, drained on every sample: the history cache never
			// evicts, so dropped_by_qos counts real QoS drops only.
			rd, err = part.CreateDataReader(topic, dds.ReaderQoS{Reliability: dds.Reliable, History: dds.KeepAll},
				dds.ListenerFuncs{Data: func(s dds.Sample) {
					r.onSample(st, s)
					rd.Take()
				}})
			r.readers = append(r.readers, rd)
		})
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// onSample runs on a reader's env goroutine for every delivered sample.
func (r *ddsRig) onSample(st *ddsReaderState, s dds.Sample) {
	now := time.Since(r.base)
	t0 := time.Now()
	// Intact: the payload's sample index matches the transport sequence
	// number it arrived under (sample i is sequence i+1) and its intended
	// send time lies between the rig's start and now.
	idx, intended, intact := int64(-1), int64(0), len(s.Data) == ddsSample
	if intact {
		idx = int64(le.Uint32(s.Data))
		intended = int64(le.Uint64(s.Data[4:]))
		intact = s.Info.Seq == uint64(idx)+1 && intended >= 0 && intended <= int64(now)
	}
	lat := now - time.Duration(intended)
	st.mu.Lock()
	st.chk.observe(idx, intact)
	if st.win != nil {
		st.win.add(intended, ms(lat))
	}
	st.got++
	st.mu.Unlock()
	st.recent.Store(int64(lat))
	if r.tr != nil && intact && r.ringIdx[idx%ddsRing].Load() == idx {
		k := idx % ddsRing
		root := spanID(r.ringSpan[k].Load())
		t1 := time.Now()
		r.tr.record("dds.deliver", root, idx, t0, t1)
		if r.ringDone[k].Add(1) == ddsReaders {
			r.tr.end(root, t1)
		}
	}
}

// write posts sample idx to the writer's env, due at intended.
func (r *ddsRig) write(intended time.Time) {
	idx := r.next
	r.next++
	off := int64(intended.Sub(r.base))
	root := r.tr.begin("dds.sample", noSpan, idx, intended)
	if r.tr != nil {
		k := idx % ddsRing
		r.ringDone[k].Store(0)
		r.ringSpan[k].Store(int32(root))
		r.ringIdx[k].Store(idx)
	}
	payload := make([]byte, ddsSample)
	le.PutUint32(payload, uint32(idx))
	le.PutUint64(payload[4:], uint64(off))
	posted := time.Now()
	tap := r.taps[0]
	r.envs[0].Post(func() {
		t0 := time.Now()
		r.tr.record("env.post_wait", root, idx, posted, t0)
		ws := r.tr.begin("dds.write", root, idx, t0)
		tap.parentWrite = ws
		err := r.writer.Write(payload)
		t1 := time.Now()
		r.tr.end(ws, t1)
		r.writeLat.add(us(t1.Sub(t0)))
		if err != nil {
			r.writeErrs++
		}
	})
}

func (r *ddsRig) close() {
	for i, part := range r.parts {
		part := part
		onEnv(r.envs[i], func() { part.Close() })
	}
	for _, ep := range r.eps {
		ep.Close()
	}
	for _, e := range r.envs {
		e.Close()
	}
}

// begin opens a window covering the samples written from now on.
func (r *ddsRig) begin() {
	for _, st := range r.states {
		st.mu.Lock()
		st.win = &window{}
		st.got = 0
		st.mu.Unlock()
		st.recent.Store(0)
	}
}

// finish waits until every reader has every sample of the window (see
// drainWait; the idle bound covers NAK recovery of a lost tail sample
// after the next heartbeat), then settles the per-reader checks.
func (r *ddsRig) finish(lo int64, drain time.Duration) window {
	n := r.next - lo
	drainWait(drain, func() (int64, bool) {
		var total int64
		done := true
		for _, st := range r.states {
			st.mu.Lock()
			got := st.got
			st.mu.Unlock()
			total += got
			done = done && got >= n
		}
		return total, done
	})
	var w window
	for i, st := range r.states {
		r.envs[i+1].Barrier()
		st.mu.Lock()
		w.merge(st.win)
		w.attempted += n
		w.failed += st.chk.settle(r.next)
		st.win = nil
		st.mu.Unlock()
	}
	return w
}

func (r *ddsRig) recent() time.Duration {
	var m int64
	for _, st := range r.states {
		m = max(m, st.recent.Load())
	}
	return time.Duration(m)
}

// warmUp writes one sample and waits until every reader has it.
func (r *ddsRig) warmUp() error {
	lo := r.next
	r.write(time.Now())
	if w := r.finish(lo, 5*time.Second); w.failed > 0 {
		return fmt.Errorf("warm-up sample did not reach every reader")
	}
	return nil
}

func runDDS(p params, tr *tracer) (*outcome, error) {
	o := newOutcome()
	ws := p.spec
	var node *adamantNode
	build := func() (*ddsRig, time.Duration, error) {
		t0 := time.Now()
		var err error
		if node, err = newAdamantNode(p.exp); err != nil {
			return nil, 0, err
		}
		rig, err := newDDSRig(p, node.spec, tr)
		if err != nil {
			return nil, 0, err
		}
		if err := rig.warmUp(); err != nil {
			rig.close()
			return nil, 0, err
		}
		return rig, time.Since(t0), nil
	}
	rig, err := repeatSetup(o, 180, build, (*ddsRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	o.notef("transport: controller chose %s for %d readers at %.0f%% loss", node.spec, ddsReaders, decideParams.LossPct)

	var lo int64
	tg := target{
		begin: func() {
			rig.begin()
			lo = rig.next
		},
		send: func(intended time.Time) error {
			rig.write(intended)
			return nil
		},
		recent: rig.recent,
		finish: func() window { return rig.finish(lo, 5*time.Second) },
	}
	written0 := rig.next
	rig.lossOn.Store(true)
	dt, err := node.timeDecisions(tr)
	if err != nil {
		return nil, err
	}
	o.setDecide(dt)
	runtime.GC() // start clean of set-up garbage
	p0 := readProc()
	stopAux := make(chan struct{})
	var postWait samples
	auxDone := make(chan struct{})
	go func() {
		defer close(auxDone)
		probePostWait(stopAux, rig, &postWait)
	}()
	fixedDur := time.Duration(0.4 * p.seconds * float64(time.Second))
	trialDur := max(300*time.Millisecond, time.Duration(0.6*p.seconds/(10*searches)*float64(time.Second)))
	datagrams0 := rig.datagrams.Load()
	fixed := runTrial(tg, ws.FixedRateHz, fixedDur, ws.limit(), false)
	tr.pause()
	close(stopAux)
	<-auxDone
	o.e2e["peak_rss_mb"] = peakRSSMB()
	p1 := readProc()
	written := rig.next - written0
	datagrams := rig.datagrams.Load() - datagrams0
	// Per-layer readings cover the fixed-rate phase, the operating point
	// the latency metrics and the trace describe; the ladder's overloaded
	// rungs would otherwise dominate them.
	var ts transport.ReceiverStats
	var lost, qos uint64
	var handle samples
	var drops int64
	for i, rd := range rig.readers {
		rd := rd
		onEnv(rig.envs[i+1], func() {
			s := rd.TransportStats()
			ts.Delivered += s.Delivered
			ts.Recovered += s.Recovered
			ts.NaksSent += s.NaksSent
			ts.RepairsSent += s.RepairsSent
			ts.RepairsUsed += s.RepairsUsed
			ts.Duplicates += s.Duplicates
			ts.Abandoned += s.Abandoned
			ts.MaxBuffered = max(ts.MaxBuffered, s.MaxBuffered)
			lost += rd.SamplesLost()
			qos += rd.DroppedByQoS()
			handle.merge(&rig.taps[i+1].handle)
			drops += rig.taps[i+1].drops
		})
	}
	var mcast, writeLat samples
	onEnv(rig.envs[0], func() {
		mcast.merge(&rig.taps[0].mcast)
		writeLat.merge(&rig.writeLat)
	})

	maxRate, ladder := searchMaxRate(tg, ws.ladder(), trialDur, ws.limit(), fixed.achieved)
	var faults faults
	for _, st := range rig.states {
		st.mu.Lock()
		faults.add(st.chk.f)
		st.mu.Unlock()
	}

	o.setTrials(ws, &fixed, ladder, maxRate)

	var writeErrs int64
	onEnv(rig.envs[0], func() { writeErrs = rig.writeErrs })
	if writeErrs > 0 {
		o.errorf("%d DataWriter.Write calls failed", writeErrs)
	}
	if faults.reorder+faults.corrupt > 0 {
		o.errorf("reader check: %s", faults)
	}
	l := o.layer
	l["dds.write_us.p50"] = writeLat.quantile(0.5)
	l["dds.write_us.p99"] = writeLat.quantile(0.99)
	l["dds.samples_lost"] = float64(lost)
	l["dds.dropped_by_qos"] = float64(qos)
	l["udpnet.multicast_us.p50"] = mcast.quantile(0.5)
	if written > 0 {
		l["udpnet.datagrams_per_sample"] = float64(datagrams) / float64(written)
	}
	l["udpnet.handle_us.p50"] = handle.quantile(0.5)
	l["udpnet.handle_us.p99"] = handle.quantile(0.99)
	l["env.post_wait_us.p50"] = postWait.quantile(0.5)
	l["env.post_wait_us.p99"] = postWait.quantile(0.99)
	l["transport.delivered"] = float64(ts.Delivered)
	l["transport.recovered"] = float64(ts.Recovered)
	l["transport.naks_sent"] = float64(ts.NaksSent)
	l["transport.repairs_sent"] = float64(ts.RepairsSent)
	l["transport.repairs_used"] = float64(ts.RepairsUsed)
	l["transport.duplicates"] = float64(ts.Duplicates)
	l["transport.abandoned"] = float64(ts.Abandoned)
	l["transport.max_buffered"] = float64(ts.MaxBuffered)
	l["transport.injected_drops"] = float64(drops)
	if drops > 0 {
		l["transport.recovered_per_drop"] = float64(ts.Recovered) / float64(drops)
	}
	if ts.RepairsSent > 0 {
		l["transport.repairs_used_per_sent"] = float64(ts.RepairsUsed) / float64(ts.RepairsSent)
	}
	o.setProc(p0.to(p1), written)
	o.notef("transport: %d delivered, %d injected drops, %d recovered, %d NAKs, %d abandoned; %d samples lost, %d dropped by QoS",
		ts.Delivered, drops, ts.Recovered, ts.NaksSent, ts.Abandoned, lost, qos)
	o.finish()
	return o, nil
}

// probePostWait posts a timing closure to the writer and reader envs in
// turn every 2 ms and records how long each waited in the env's queue,
// until stop closes; it returns once every posted closure has run.
func probePostWait(stop <-chan struct{}, rig *ddsRig, out *samples) {
	tk := time.NewTicker(2 * time.Millisecond)
	defer tk.Stop()
	var mu sync.Mutex
	for n := int64(0); ; n++ {
		select {
		case <-stop:
			for _, e := range rig.envs {
				e.Barrier()
			}
			return
		case <-tk.C:
		}
		posted := time.Now()
		rig.envs[n%int64(len(rig.envs))].Post(func() {
			t := time.Now()
			rig.tr.record("env.post_wait", noSpan, -1, posted, t)
			mu.Lock()
			out.add(us(t.Sub(posted)))
			mu.Unlock()
		})
	}
}

// mix64 is the splitmix64 finalizer: a seeded, stateless hash for the loss
// pattern.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
