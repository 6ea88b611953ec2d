package main

import (
	"fmt"
	"math/rand"
	"time"

	"adamant/internal/broker"
)

// The routing subject space is r.<a>.<b> with a < routeA and b < routeB:
// 16384 subjects, all in one routing shard (same first token), twice the
// 8192-entry match cache.
const (
	routeA       = 256
	routeB       = 64
	routeSubject = routeA * routeB

	stableLiterals = 3000 // r.a.b
	stableStarB    = 96   // r.a.*
	stableStarA    = 32   // r.*.b
	stableTail     = 32   // r.a.>
	churnLiterals  = 256
	churnMax       = 32 // churn subscriptions alive at once
	churnPeriod    = 20 * time.Millisecond
	zipfDraws      = 1 << 18
	routePayload   = 64
)

func subjectName(i int) string { return fmt.Sprintf("r.%d.%d", i/routeB, i%routeB) }

// routeInputs are the seeded inputs of broker-routing.
type routeInputs struct {
	subjects []string
	patterns []string // stable subscriptions, index = subscriber id
	churn    []string // churn pool, disjoint from patterns
	draws    []int32  // Zipf-drawn subject indexes, cycled by the publisher
	// Index from subject to candidate stable subscribers, built from the
	// pattern structure; matchAll confirms each with broker.Match.
	literal map[int]int32
	starB   map[int]int32 // a -> r.a.*
	starA   map[int]int32 // b -> r.*.b
	tail    map[int]int32 // a -> r.a.>
	match   [][]int32     // subject -> stable subscribers it reaches
}

func newRouteInputs(seed int64) *routeInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &routeInputs{
		literal: map[int]int32{}, starB: map[int]int32{}, starA: map[int]int32{}, tail: map[int]int32{},
	}
	for i := 0; i < routeSubject; i++ {
		in.subjects = append(in.subjects, subjectName(i))
	}
	add := func(p string) int32 {
		in.patterns = append(in.patterns, p)
		return int32(len(in.patterns) - 1)
	}
	perm := rng.Perm(routeSubject)
	for _, s := range perm[:stableLiterals] {
		in.literal[s] = add(in.subjects[s])
	}
	// Churn patterns share the subjects' first token, so they land in the
	// same routing shard and every change invalidates its match cache,
	// but their c-prefixed second token never matches a published
	// subject: no delivery races an UNSUB, and delivery counts stay exact.
	for _, s := range perm[:churnLiterals] {
		in.churn = append(in.churn, fmt.Sprintf("r.c%d.%d", s/routeB, s%routeB))
	}
	as := rng.Perm(routeA)
	for _, a := range as[:stableStarB] {
		in.starB[a] = add(fmt.Sprintf("r.%d.*", a))
	}
	for _, a := range as[stableStarB : stableStarB+stableTail] {
		in.tail[a] = add(fmt.Sprintf("r.%d.>", a))
	}
	for _, a := range as[:churnMax] {
		in.churn = append(in.churn, fmt.Sprintf("r.c%d.*", a))
	}
	for _, b := range rng.Perm(routeB)[:stableStarA] {
		in.starA[b] = add(fmt.Sprintf("r.*.%d", b))
	}
	rng.Shuffle(len(in.churn), func(i, j int) { in.churn[i], in.churn[j] = in.churn[j], in.churn[i] })
	// Zipf ranks map through a seeded permutation, so popular subjects
	// are spread over the space rather than clustered at low indexes.
	rank := rng.Perm(routeSubject)
	z := rand.NewZipf(rng, 1.1, 1, routeSubject-1)
	in.draws = make([]int32, zipfDraws)
	for i := range in.draws {
		in.draws[i] = int32(rank[z.Uint64()])
	}
	in.matchAll()
	return in
}

// matchAll fills in.match for every subject from the pattern-structure
// index, confirming each candidate with the reference broker.Match.
func (in *routeInputs) matchAll() {
	in.match = make([][]int32, routeSubject)
	for i := range in.match {
		a, b := i/routeB, i%routeB
		for _, c := range []struct {
			m   map[int]int32
			key int
		}{{in.literal, i}, {in.starB, a}, {in.starA, b}, {in.tail, a}} {
			if s, ok := c.m[c.key]; ok && broker.Match(in.subjects[i], in.patterns[s]) {
				in.match[i] = append(in.match[i], s)
			}
		}
	}
}

func contains(xs []int32, x int32) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// verifyOracle checks the index against a brute-force broker.Match over
// every stable pattern, for n subjects drawn by rng.
func (in *routeInputs) verifyOracle(rng *rand.Rand, n int) error {
	for k := 0; k < n; k++ {
		i := rng.Intn(routeSubject)
		var brute []int32
		for s, p := range in.patterns {
			if broker.Match(in.subjects[i], p) {
				brute = append(brute, int32(s))
			}
		}
		got := map[int32]bool{}
		for _, s := range in.match[i] {
			got[s] = true
		}
		if len(got) != len(brute) {
			return fmt.Errorf("subject %s: index expects %d subscribers, broker.Match finds %d", in.subjects[i], len(got), len(brute))
		}
		for _, s := range brute {
			if !got[s] {
				return fmt.Errorf("subject %s: index misses pattern %s", in.subjects[i], in.patterns[s])
			}
		}
	}
	return nil
}

func runBrokerRouting(p params, tr *tracer) (*outcome, error) {
	o := newOutcome()
	if _, err := newAdamantNode(p.exp); err != nil {
		return nil, err
	}
	in := newRouteInputs(p.seed)
	if err := in.verifyOracle(rand.New(rand.NewSource(p.seed+1)), 256); err != nil {
		return nil, fmt.Errorf("expected-match oracle: %w", err)
	}
	intact := func(seq uint64, data []byte) bool {
		if len(data) != routePayload || data[len(data)-1] != byte(seq) {
			return false
		}
		return int(le.Uint32(data[hdrSubject:])) < routeSubject
	}
	var st *brokerState
	var subscribeS []float64
	stable := uint64(len(in.patterns))

	build := func() (*brokerRig, time.Duration, error) {
		t0 := time.Now()
		rig, err := startServers(2, p.seed)
		if err != nil {
			return nil, 0, err
		}
		st = newBrokerState(len(in.patterns), tr)
		if rig.sub, err = broker.Dial(rig.subSrv().Addr().String()); err != nil {
			rig.close()
			return nil, 0, err
		}
		ts := time.Now()
		span := tr.begin("broker.subscribe", noSpan, 0, ts)
		for i, pat := range in.patterns {
			i := i
			_, err := rig.sub.Subscribe(pat, func(m broker.Msg) {
				matches := false
				if len(m.Data) == routePayload {
					subj := le.Uint32(m.Data[hdrSubject:]) % routeSubject
					matches = in.subjects[subj] == m.Subject && contains(in.match[subj], int32(i))
				}
				st.deliver(i, m.Data, intact, matches)
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
		// Interest has converged once the publishing broker holds every
		// stable pattern as remote interest.
		if !waitUntil(10*time.Second, func() bool { return rig.pubSrv().Stats().RemoteSubs == stable }) {
			rig.close()
			return nil, 0, fmt.Errorf("publishing broker holds %d remote subscriptions, want %d", rig.pubSrv().Stats().RemoteSubs, stable)
		}
		if rig.pub, err = broker.Dial(rig.pubSrv().Addr().String()); err != nil {
			rig.close()
			return nil, 0, err
		}
		if err := rig.pub.Flush(5 * time.Second); err != nil {
			rig.close()
			return nil, 0, err
		}
		return rig, time.Since(t0), nil
	}
	rig, err := repeatSetup(o, 80, build, (*brokerRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	o.layer["broker.subscribe_s"] = quantileOf(subscribeS, 0.5)

	payload := make([]byte, routePayload)
	var seq uint64
	tg := target{
		begin: st.begin,
		send: func(intended time.Time) error {
			seq++
			i := int(in.draws[seq%zipfDraws])
			le.PutUint32(payload[hdrSubject:], uint32(i))
			for k := hdrLen; k < routePayload; k++ {
				payload[k] = byte(seq)
			}
			return st.publish(rig.pub, in.subjects[i], payload, seq, intended, in.match[i])
		},
		recent: func() time.Duration { return time.Duration(st.recentLat.Load()) },
		finish: func() window { return st.finish(2 * time.Second) },
	}
	var converge samples // ms
	var churnOps, churnFailed int64
	aux := func(stop <-chan struct{}, run *brokerRun) {
		churnOps, churnFailed = churn(stop, rig, in, stable, st, tr, &converge, run)
	}
	run := measureBroker(p, rig, st, tg, aux, tr, o)
	run.report(p, st, o, true)
	o.attempted += churnOps
	o.failed += churnFailed
	if churnFailed > 0 {
		o.errorf("%d of %d churn operations failed or did not converge", churnFailed, churnOps)
	}
	if n := st.churnGot.Load(); n > 0 {
		o.errorf("churn subscriptions, which match no published subject, received %d messages", n)
	}
	o.layer["broker.route.interest_converge_ms.p50"] = converge.quantile(0.5)
	o.layer["broker.route.interest_converge_ms.p99"] = converge.quantile(0.99)
	o.notef("churn: %d SUB/UNSUB operations, interest convergence p50 %.3f ms p99 %.3f ms",
		churnOps, converge.quantile(0.5), converge.quantile(0.99))
	o.notef("inputs: %d stable patterns, %d subjects, %d distinct subjects drawn",
		len(in.patterns), routeSubject, distinct(in.draws[:min(seq, zipfDraws)]))
	o.finish()
	return o, nil
}

// churn subscribes and unsubscribes churn-pool patterns on the subscriber
// connection every churnPeriod, keeping at most churnMax alive. Every
// fifth operation it times how long the publishing broker's
// remote-interest gauge takes to reflect the change, and also times a
// Flush round trip.
func churn(stop <-chan struct{}, rig *brokerRig, in *routeInputs, stable uint64, st *brokerState, tr *tracer, converge *samples, run *brokerRun) (ops, failed int64) {
	tk := time.NewTicker(churnPeriod)
	defer tk.Stop()
	var live []*broker.Subscription
	next := 0
	defer func() {
		for _, s := range live {
			if s.Unsubscribe() != nil {
				failed++
			}
		}
		if !waitConverged(rig.pubSrv(), stable) {
			failed++
		}
	}()
	for tick := int64(0); ; tick++ {
		select {
		case <-stop:
			return ops, failed
		case <-tk.C:
		}
		measure := tick%5 == 0
		if measure && probeFlush(rig.pub, tr, tick, run) != nil {
			failed++
		}
		t0 := time.Now()
		var err error
		if len(live) < churnMax {
			var s *broker.Subscription
			s, err = rig.sub.Subscribe(in.churn[next%len(in.churn)], func(broker.Msg) { st.churnGot.Add(1) })
			next++
			if err == nil {
				live = append(live, s)
			}
		} else {
			err = live[0].Unsubscribe()
			live = live[1:]
		}
		ops++
		if err != nil {
			failed++
			continue
		}
		if !measure {
			continue
		}
		if !waitConverged(rig.pubSrv(), stable+uint64(len(live))) {
			failed++
			continue
		}
		t1 := time.Now()
		tr.record("broker.route.converge", noSpan, tick, t0, t1)
		converge.add(ms(t1.Sub(t0)))
	}
}

// waitConverged waits until the broker's remote-interest gauge reads want.
func waitConverged(s *broker.Server, want uint64) bool {
	return waitUntil(5*time.Second, func() bool { return s.Stats().RemoteSubs == want })
}

func distinct(xs []int32) int {
	seen := map[int32]bool{}
	for _, x := range xs {
		seen[x] = true
	}
	return len(seen)
}
