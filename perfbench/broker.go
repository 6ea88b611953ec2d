package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adamant/internal/broker"
)

var le = binary.LittleEndian

// Payload layout shared by both broker workloads: sequence number,
// intended send time (ns since the rig's base), subject index, then filler
// bytes equal to the low byte of the sequence number.
const (
	hdrSeq      = 0
	hdrIntended = 8
	hdrSubject  = 16
	hdrLen      = 20
)

// brokerRig is one stood-up broker deployment: its servers, the
// subscriber connection (on the last server) and the publisher connection
// (on the first). A single-server rig has both on the same broker.
type brokerRig struct {
	servers []*broker.Server
	sub     *broker.Client
	pub     *broker.Client
}

func (r *brokerRig) pubSrv() *broker.Server { return r.servers[0] }
func (r *brokerRig) subSrv() *broker.Server { return r.servers[len(r.servers)-1] }

func (r *brokerRig) close() {
	for _, c := range []*broker.Client{r.pub, r.sub} {
		if c != nil {
			c.Close()
		}
	}
	for _, s := range r.servers {
		s.Shutdown()
	}
}

// The subscriber connection multiplexes up to 1000 subscriptions, so one
// publish queues up to 1000 frames on it; the per-connection queue is
// sized for 256 such publishes rather than the default 16 so that overload
// shows as latency and publish admission, not as frame drops.
const (
	subQueueFrames = 1 << 18
	subQueueBytes  = 256 << 20
)

// startServers starts n brokers on loopback; with n > 1 the last one
// routes to the first and the call waits until both see the route. The
// benchmark runs brokers with the drop slow-consumer policy so an
// overloaded ladder rung loses frames (and fails) instead of disconnecting
// the subscriber for the rest of the run.
func startServers(n int, seed int64) (*brokerRig, error) {
	r := &brokerRig{}
	for i := 0; i < n; i++ {
		s := broker.NewServer(broker.WithServerID(fmt.Sprintf("bench-%c", 'A'+i)), broker.WithSeed(seed+int64(i)),
			broker.WithSlowConsumerPolicy(broker.SlowConsumerDrop), broker.WithWriteQueue(subQueueFrames, subQueueBytes))
		if err := s.ListenAndServe("127.0.0.1:0"); err != nil {
			r.close()
			return nil, err
		}
		r.servers = append(r.servers, s)
	}
	if n > 1 {
		r.subSrv().AddRoute(r.pubSrv().Addr().String())
		ok := waitUntil(5*time.Second, func() bool {
			return r.pubSrv().Stats().Routes == 1 && r.subSrv().Stats().Routes == 1
		})
		if !ok {
			r.close()
			return nil, fmt.Errorf("route between brokers did not come up")
		}
	}
	return r, nil
}

// waitUntil polls cond until it holds or the timeout passes. It sleeps
// between polls rather than spinning: a goroutine that spins with
// runtime.Gosched keeps a P busy and can hold off the network poller for
// milliseconds, which made set-up times bimodal.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	start := time.Now()
	for !cond() {
		if time.Since(start) > timeout {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// opRing tracks in-flight publishes for the traced run: how many stable
// deliveries each still awaits and its root span, so the span can end at
// the last delivery.
type opRing struct {
	seq  []uint64
	left []int32
	id   []spanID
}

const opRingSize = 1 << 16

func newOpRing() *opRing {
	return &opRing{seq: make([]uint64, opRingSize), left: make([]int32, opRingSize), id: make([]spanID, opRingSize)}
}

// brokerState is the receive side shared by the broker workloads. The
// subscriber connection's reader goroutine runs every handler; mu orders
// it against the publishing goroutine's expectations and window switches.
type brokerState struct {
	base time.Time
	tr   *tracer
	ops  *opRing

	mu       sync.Mutex
	chk      *fifoChecker
	win      *window
	expected int64 // stable deliveries expected in this window
	got      int64 // stable deliveries received in this window

	delivered  atomic.Int64 // all stable deliveries
	churnGot   atomic.Int64 // deliveries to churn subscriptions
	recentLat  atomic.Int64 // ns, latest stable delivery's latency
	publishes  int64
	nextSeq    uint64  // sequence number the next publish will carry
	publishLat samples // µs per Client.Publish call
}

func newBrokerState(subs int, tr *tracer) *brokerState {
	st := &brokerState{base: time.Now(), tr: tr, chk: newFIFOChecker(subs), win: &window{}}
	if tr != nil {
		st.ops = newOpRing()
	}
	return st
}

// deliver is the common handler body for a stable subscription.
func (st *brokerState) deliver(sub int, data []byte, intact func(seq uint64, data []byte) bool, matches bool) {
	now := time.Since(st.base)
	if len(data) < hdrLen {
		st.mu.Lock()
		st.chk.f.corrupt++
		st.mu.Unlock()
		return
	}
	seq := le.Uint64(data[hdrSeq:])
	lat := now - time.Duration(le.Uint64(data[hdrIntended:]))
	ok := intact(seq, data)
	st.mu.Lock()
	if ok {
		st.chk.observe(sub, seq, matches)
	} else {
		st.chk.f.corrupt++
	}
	st.win.add(int64(le.Uint64(data[hdrIntended:])), ms(lat))
	st.got++
	if st.ops != nil {
		k := seq % opRingSize
		if st.ops.seq[k] == seq {
			st.ops.left[k]--
			if st.ops.left[k] == 0 {
				st.tr.end(st.ops.id[k], time.Now())
			}
		}
	}
	st.mu.Unlock()
	st.recentLat.Store(int64(lat))
	st.delivered.Add(1)
}

// publish sends one message due at intended, expecting delivery to the
// stable subscriptions in subs.
func (st *brokerState) publish(c *broker.Client, subject string, payload []byte, seq uint64, intended time.Time, subs []int32) error {
	le.PutUint64(payload[hdrSeq:], seq)
	le.PutUint64(payload[hdrIntended:], uint64(intended.Sub(st.base)))
	root := st.tr.begin("broker.op", noSpan, int64(seq), intended)
	st.mu.Lock()
	for _, s := range subs {
		st.chk.expect(int(s))
	}
	st.expected += int64(len(subs))
	if st.ops != nil {
		k := seq % opRingSize
		st.ops.seq[k], st.ops.left[k], st.ops.id[k] = seq, int32(len(subs)), root
	}
	st.mu.Unlock()
	t0 := time.Now()
	err := c.Publish(subject, payload)
	t1 := time.Now()
	st.tr.record("broker.client.publish", root, int64(seq), t0, t1)
	if len(subs) == 0 {
		st.tr.end(root, t1)
	}
	st.publishes++
	st.nextSeq = seq + 1
	st.publishLat.add(us(t1.Sub(t0)))
	return err
}

func (st *brokerState) begin() {
	st.mu.Lock()
	st.win = &window{}
	st.expected, st.got = 0, 0
	st.mu.Unlock()
	st.recentLat.Store(0)
}

// finish waits for the window's expected deliveries (see drainWait), then
// settles the checker: anything still missing is a failed operation.
func (st *brokerState) finish(drainTimeout time.Duration) window {
	drainWait(drainTimeout, func() (int64, bool) {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.got, st.got >= st.expected
	})
	st.mu.Lock()
	defer st.mu.Unlock()
	missing := st.chk.settle(st.nextSeq)
	w := st.win
	w.attempted = st.expected
	w.failed = missing
	st.win = &window{}
	return *w
}

// brokerRun collects what the phases of a broker workload measured.
type brokerRun struct {
	fixed   trial
	maxRate float64
	ladder  []trial
	flush   samples // µs
	stats0  [2]broker.ServerStats
	stats1  [2]broker.ServerStats
	// Per-layer readings cover the fixed-rate phase, the operating point
	// the latency metrics and the trace describe; the ladder's overloaded
	// rungs would otherwise dominate them.
	statsFixed [2]broker.ServerStats
	procFixed  procDelta
	pubFixed   int64
	got0       uint64 // deliveries received before the measured phases
	pub0       int64  // publishes made before the measured phases
}

// measureBroker runs the fixed-rate phase and the max-rate search with the
// aux goroutine beside them, and records per-layer readings around them.
// Peak memory is read after the fixed-rate phase, before the ladder's
// overloaded rungs.
func measureBroker(p params, rig *brokerRig, st *brokerState, tg target, aux func(stop <-chan struct{}, run *brokerRun), tr *tracer, o *outcome) *brokerRun {
	ws := p.spec
	run := &brokerRun{}
	runtime.GC() // start clean of set-up garbage
	run.stats0 = [2]broker.ServerStats{rig.pubSrv().Stats(), rig.subSrv().Stats()}
	run.got0 = uint64(st.delivered.Load() + st.churnGot.Load())
	run.pub0 = st.publishes
	p0 := readProc()

	fixedDur := time.Duration(0.4 * p.seconds * float64(time.Second))
	trialDur := max(300*time.Millisecond, time.Duration(0.6*p.seconds/(10*searches)*float64(time.Second)))
	stopAux := make(chan struct{})
	auxDone := make(chan struct{})
	go func() {
		defer close(auxDone)
		aux(stopAux, run)
	}()
	run.fixed = runTrial(tg, ws.FixedRateHz, fixedDur, ws.limit(), false)
	tr.pause()
	o.e2e["peak_rss_mb"] = peakRSSMB()
	run.statsFixed = [2]broker.ServerStats{rig.pubSrv().Stats(), rig.subSrv().Stats()}
	run.procFixed = p0.to(readProc())
	run.pubFixed = st.publishes

	run.maxRate, run.ladder = searchMaxRate(tg, ws.ladder(), trialDur, ws.limit(), run.fixed.achieved)
	close(stopAux)
	<-auxDone
	if err := rig.pub.Flush(5 * time.Second); err != nil {
		o.errorf("final flush: %v", err)
	}
	// Every frame the subscriber broker sent must reach the subscriber
	// before the counters are compared.
	waitUntil(2*time.Second, func() bool {
		out := rig.subSrv().Stats().MsgsOut - run.stats0[1].MsgsOut
		return out == uint64(st.delivered.Load()+st.churnGot.Load())-run.got0
	})
	run.stats1 = [2]broker.ServerStats{rig.pubSrv().Stats(), rig.subSrv().Stats()}
	return run
}

// report turns a broker run into metrics and checks.
func (run *brokerRun) report(p params, st *brokerState, o *outcome, routed bool) {
	o.setTrials(p.spec, &run.fixed, run.ladder, run.maxRate)

	in := run.stats1[0].MsgsIn - run.stats0[0].MsgsIn
	out := run.stats1[1].MsgsOut - run.stats0[1].MsgsOut
	fin := run.statsFixed[0].MsgsIn - run.stats0[0].MsgsIn
	fout := run.statsFixed[1].MsgsOut - run.stats0[1].MsgsOut
	o.layer["broker.msgs_in"] = float64(fin)
	o.layer["broker.msgs_out"] = float64(fout)
	if fin > 0 {
		o.layer["broker.fanout_ratio"] = float64(fout) / float64(fin)
	}
	var drops, waits, timeouts, dups uint64
	for i := range run.statsFixed {
		drops += run.statsFixed[i].SlowConsumerDrops - run.stats0[i].SlowConsumerDrops
		waits += run.statsFixed[i].AdmissionWaits - run.stats0[i].AdmissionWaits
		timeouts += run.statsFixed[i].AdmissionTimeouts - run.stats0[i].AdmissionTimeouts
		dups += run.stats1[i].DupsSuppressed
		if !routed {
			break // one server: both entries are the same broker
		}
	}
	o.layer["broker.slow_consumer_drops"] = float64(drops)
	o.layer["broker.admission_waits"] = float64(waits)
	o.layer["broker.admission_timeouts"] = float64(timeouts)
	if routed {
		o.layer["broker.route.routed_msgs"] = float64(run.statsFixed[0].RoutedMsgs - run.stats0[0].RoutedMsgs)
		o.layer["broker.route.remote_subs"] = float64(run.statsFixed[0].RemoteSubs)
		o.layer["broker.route.dups_suppressed"] = float64(dups)
		if dups != 0 {
			o.errorf("mesh suppressed %d duplicate routed frames, want 0", dups)
		}
	}
	if in != uint64(st.publishes-run.pub0) {
		o.errorf("publishing broker counted %d messages in, the generator published %d", in, st.publishes)
	}
	if got := uint64(st.delivered.Load()+st.churnGot.Load()) - run.got0; out != got {
		o.errorf("subscriber broker counted %d messages out, the subscriber received %d", out, got)
	}
	if st.chk.f.dup+st.chk.f.reorder+st.chk.f.unexpected+st.chk.f.corrupt > 0 {
		o.errorf("delivery check: %s", st.chk.f)
	}
	pubLat := samples{xs: st.publishLat.xs[run.pub0:run.pubFixed]}
	o.layer["broker.client.publish_us.p50"] = pubLat.quantile(0.5)
	o.layer["broker.client.publish_us.p99"] = pubLat.quantile(0.99)
	o.layer["broker.client.flush_rtt_us.p50"] = run.flush.quantile(0.5)
	o.layer["broker.client.flush_rtt_us.p99"] = run.flush.quantile(0.99)
	o.setProc(run.procFixed, run.pubFixed-run.pub0)
}

// probeFlush times one Client.Flush round trip.
func probeFlush(c *broker.Client, tr *tracer, req int64, run *brokerRun) error {
	t0 := time.Now()
	err := c.Flush(5 * time.Second)
	t1 := time.Now()
	tr.record("broker.client.flush", noSpan, req, t0, t1)
	run.flush.add(us(t1.Sub(t0)))
	return err
}

// repeatSetup stands the deployment up reps times, keeping the last and
// reporting the median set-up time. Each workload picks reps so that its
// set-ups span about 2.5 s: the shared host's speed drifts over spells of
// that order, and a median over half a second of set-ups moved by a
// quarter from run to run. A fixed count keeps the work, and so the peak
// memory it leaves, the same at every seed. Each set-up starts from the
// same state: the previous deployment's goroutines have all exited
// (teardown does not wait for its readers and writers to wind down, and
// one still running would be timed with the next set-up), the heap is
// collected, and the process has been idle for setupPause.
const setupPause = 10 * time.Millisecond

func repeatSetup[T any](o *outcome, reps int, build func() (T, time.Duration, error), teardown func(T)) (T, error) {
	var keep T
	var times []float64
	idle := runtime.NumGoroutine()
	for {
		runtime.GC()
		time.Sleep(setupPause)
		v, d, err := build()
		if err != nil {
			return keep, err
		}
		times = append(times, d.Seconds())
		if len(times) == reps {
			keep = v
			break
		}
		teardown(v)
		if !waitUntil(5*time.Second, func() bool { return runtime.NumGoroutine() <= idle }) {
			return keep, fmt.Errorf("teardown left %d goroutines running, %d before set-up", runtime.NumGoroutine(), idle)
		}
	}
	o.e2e["setup_s"] = quantileOf(times, 0.5)
	o.notef("setup: %d set-ups, median %.4f s, quartiles %.4f-%.4f s", len(times), o.e2e["setup_s"], quantileOf(times, 0.25), quantileOf(times, 0.75))
	return keep, nil
}

// ---- broker-fanout ----

const (
	fanoutSubs    = 1000
	fanoutSubject = "bench.fanout"
)

// payloadSizes draws the seeded payload mix, stratified so every seed has
// the same class shares: 70% small (24-128 B, the coalesced writev path),
// 20% medium (256-1000 B) and 10% large (4-6 KiB, the own-iovec path and
// the client's writev publish), in seeded order.
func payloadSizes(rng *rand.Rand, n int) []int {
	sizes := make([]int, n)
	for i := range sizes {
		switch {
		case i < n*7/10:
			sizes[i] = 24 + rng.Intn(105)
		case i < n*9/10:
			sizes[i] = 256 + rng.Intn(745)
		default:
			sizes[i] = 4096 + rng.Intn(2049)
		}
	}
	rng.Shuffle(n, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	return sizes
}

func runBrokerFanout(p params, tr *tracer) (*outcome, error) {
	o := newOutcome()
	if _, err := newAdamantNode(p.exp); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.seed))
	sizes := payloadSizes(rng, 1000)
	sizeFor := func(seq uint64) int { return sizes[seq%uint64(len(sizes))] }
	intact := func(seq uint64, data []byte) bool {
		return len(data) == sizeFor(seq) && data[len(data)-1] == byte(seq)
	}
	var st *brokerState
	var subscribeS []float64

	build := func() (*brokerRig, time.Duration, error) {
		t0 := time.Now()
		rig, err := startServers(1, p.seed)
		if err != nil {
			return nil, 0, err
		}
		st = newBrokerState(fanoutSubs, tr)
		if rig.sub, err = broker.Dial(rig.subSrv().Addr().String()); err != nil {
			rig.close()
			return nil, 0, err
		}
		ts := time.Now()
		span := tr.begin("broker.subscribe", noSpan, 0, ts)
		for i := 0; i < fanoutSubs; i++ {
			i := i
			_, err := rig.sub.Subscribe(fanoutSubject, func(m broker.Msg) {
				st.deliver(i, m.Data, intact, m.Subject == fanoutSubject)
			})
			if err != nil {
				rig.close()
				return nil, 0, err
			}
		}
		if err := rig.sub.Flush(5 * time.Second); err != nil {
			rig.close()
			return nil, 0, err
		}
		tr.end(span, time.Now())
		subscribeS = append(subscribeS, time.Since(ts).Seconds())
		if rig.pub, err = broker.Dial(rig.pubSrv().Addr().String()); err != nil {
			rig.close()
			return nil, 0, err
		}
		if err := rig.pub.Flush(5 * time.Second); err != nil {
			rig.close()
			return nil, 0, err
		}
		if n := rig.subSrv().NumSubscriptions(); n != fanoutSubs {
			rig.close()
			return nil, 0, fmt.Errorf("broker holds %d subscriptions, want %d", n, fanoutSubs)
		}
		return rig, time.Since(t0), nil
	}
	rig, err := repeatSetup(o, 150, build, (*brokerRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	o.layer["broker.subscribe_s"] = quantileOf(subscribeS, 0.5)

	all := make([]int32, fanoutSubs)
	for i := range all {
		all[i] = int32(i)
	}
	payload := make([]byte, 8192)
	var seq uint64
	tg := target{
		begin: st.begin,
		send: func(intended time.Time) error {
			seq++
			n := sizeFor(seq)
			buf := payload[:n]
			for i := hdrLen; i < n; i++ {
				buf[i] = byte(seq)
			}
			return st.publish(rig.pub, fanoutSubject, buf, seq, intended, all)
		},
		recent: func() time.Duration { return time.Duration(st.recentLat.Load()) },
		finish: func() window { return st.finish(2 * time.Second) },
	}
	aux := func(stop <-chan struct{}, run *brokerRun) {
		tk := time.NewTicker(20 * time.Millisecond)
		defer tk.Stop()
		for req := int64(0); ; req++ {
			select {
			case <-stop:
				return
			case <-tk.C:
			}
			if err := probeFlush(rig.pub, tr, req, run); err != nil {
				o.errorf("flush probe: %v", err)
				return
			}
		}
	}
	run := measureBroker(p, rig, st, tg, aux, tr, o)
	run.report(p, st, o, false)
	o.notef("payload mix: %d sizes, mean %.0f B", len(sizes), meanInt(sizes))
	o.finish()
	return o, nil
}

func meanInt(xs []int) float64 {
	t := 0
	for _, x := range xs {
		t += x
	}
	return float64(t) / float64(len(xs))
}
