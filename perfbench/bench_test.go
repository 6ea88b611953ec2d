package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"adamant/internal/metrics"
)

func TestQuantileMatchesSortAndIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	qs := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for _, n := range []int{1, 2, 3, 10, 101, 1000, 4096} {
		for trial := 0; trial < 20; trial++ {
			xs := make([]float64, n)
			for i := range xs {
				if trial%2 == 0 {
					xs[i] = float64(rng.Intn(5)) // many ties
				} else {
					xs[i] = rng.ExpFloat64()
				}
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for _, q := range qs {
				s := samples{xs: append([]float64(nil), xs...)}
				want := sorted[rankIndex(n, q)]
				if got := s.quantile(q); got != want {
					t.Fatalf("n=%d q=%v: quantile %v, sort-and-index %v", n, q, got, want)
				}
			}
		}
	}
	var empty samples
	if empty.quantile(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestRankIndexIsNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{100, 0.99, 98}, {100, 0.5, 49}, {10, 0.99, 9}, {1, 0.5, 0}, {4, 0.25, 0}, {4, 0.26, 1}} {
		if got := rankIndex(c.n, c.q); got != c.want {
			t.Errorf("rankIndex(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

func TestPacerStampsIntendedTime(t *testing.T) {
	start := time.Now().Add(2 * time.Millisecond)
	p := newPacer(start, 500, time.Second) // 2 ms period
	for i := 0; i < 10; i++ {
		due := start.Add(time.Duration(i) * 2 * time.Millisecond)
		if !p.due(i).Equal(due) {
			t.Fatalf("op %d due %v, want %v", i, p.due(i).Sub(start), due.Sub(start))
		}
		got, _ := p.wait(i)
		// The stamp is the due time, or the wake-up if the sleep ran over.
		if got.Before(due) || time.Now().Before(got) || (!got.Equal(due) && !got.Equal(p.woke)) {
			t.Fatalf("op %d intended %v, due %v, woke %v", i, got.Sub(start), due.Sub(start), p.woke.Sub(start))
		}
	}
	// Below the minimum tick, ops due in one tick share its due time.
	q := newPacer(start, 20000, time.Second) // 50 µs period, 20 per tick
	for i := 0; i < 40; i++ {
		if want := start.Add(time.Duration(i/20) * minTick); !q.due(i).Equal(want) {
			t.Fatalf("burst op %d due %v, want %v", i, q.due(i).Sub(start), want.Sub(start))
		}
	}
}

// A stall in the system under test must not move later ops' intended
// times (that would be coordinated omission); the lag the pacer reports
// must match the injected stall.
func TestPacerReportsInjectedStall(t *testing.T) {
	const stall = 60 * time.Millisecond
	start := time.Now().Add(2 * time.Millisecond)
	p := newPacer(start, 1000, 10*time.Millisecond)
	var lags []time.Duration
	var stamps []time.Time
	for i := 0; i < 100; i++ {
		intended, lag := p.wait(i)
		lags = append(lags, lag)
		stamps = append(stamps, intended)
		if i == 20 {
			time.Sleep(stall) // the "send" of op 20 blocks
		}
	}
	// Ops that fell due during the stall (not during the sleep before it)
	// are stamped with their due time.
	for i := 30; i < 20+int(stall/time.Millisecond)-5; i++ {
		if !stamps[i].Equal(p.due(i)) {
			t.Fatalf("op %d after the stall stamped %v, due %v", i, stamps[i].Sub(start), p.due(i).Sub(start))
		}
	}
	if p.maxLag < stall-2*time.Millisecond || p.maxLag > stall+30*time.Millisecond {
		t.Fatalf("max lag %v, want about the %v stall", p.maxLag, stall)
	}
	if lags[21] < stall-2*time.Millisecond {
		t.Fatalf("op after the stall released %v late, want about %v", lags[21], stall)
	}
	// The backlog drains: once caught up, ops leave on time again.
	if lags[99] > 5*time.Millisecond {
		t.Fatalf("pacer still %v behind at the end", lags[99])
	}
	if p.late == 0 || p.behind() != (p.late*100 > p.n) {
		t.Fatalf("late count %d of %d not reported", p.late, p.n)
	}
}

func TestFIFOCheckerRejectsFaults(t *testing.T) {
	clean := func() *fifoChecker {
		c := newFIFOChecker(2)
		for seq := uint64(1); seq <= 3; seq++ {
			c.expect(0)
			c.expect(1)
		}
		return c
	}
	c := clean()
	for seq := uint64(1); seq <= 3; seq++ {
		c.observe(0, seq, true)
		c.observe(1, seq, true)
	}
	if missing := c.settle(4); missing != 0 || c.f.total() != 0 {
		t.Fatalf("clean stream flagged: missing=%d %s", missing, c.f)
	}

	dup := clean()
	for _, seq := range []uint64{1, 2, 2, 3} {
		dup.observe(0, seq, true)
	}
	if dup.f.dup != 1 {
		t.Fatalf("duplicate not caught: %s", dup.f)
	}

	gap := clean()
	for _, seq := range []uint64{1, 3} {
		gap.observe(0, seq, true)
	}
	for _, seq := range []uint64{1, 2, 3} {
		gap.observe(1, seq, true)
	}
	if missing := gap.settle(4); missing != 1 || gap.f.gap != 1 {
		t.Fatalf("gap not caught: missing=%d %s", missing, gap.f)
	}

	// A message that arrives after its window settled (and was counted
	// missing) is late, not a duplicate or a reorder.
	slow := clean()
	slow.observe(0, 1, true)
	for _, seq := range []uint64{1, 2, 3} {
		slow.observe(1, seq, true)
	}
	if missing := slow.settle(4); missing != 2 {
		t.Fatalf("settle counted %d missing, want 2", missing)
	}
	slow.observe(0, 2, true)
	slow.observe(0, 4, true)
	if slow.f.late != 1 || slow.f.dup+slow.f.reorder != 0 || slow.got[0] != 1 {
		t.Fatalf("late arrival miscounted: %s, got %d", slow.f, slow.got[0])
	}

	reorder := clean()
	for _, seq := range []uint64{2, 1, 3} {
		reorder.observe(1, seq, true)
	}
	if reorder.f.reorder != 1 {
		t.Fatalf("per-subscriber reorder not caught: %s", reorder.f)
	}

	stray := clean()
	stray.observe(0, 1, false)
	if stray.f.unexpected != 1 {
		t.Fatalf("message for a non-matching subscription not caught: %s", stray.f)
	}
}

func TestSeqCheckerRejectsFaults(t *testing.T) {
	var c seqChecker
	for i := int64(0); i < 5; i++ {
		c.observe(i, true)
	}
	if c.settle(5) != 0 || c.f.total() != 0 {
		t.Fatalf("clean stream flagged: %s", c.f)
	}

	var missing seqChecker
	for _, i := range []int64{0, 1, 3, 4} {
		missing.observe(i, true)
	}
	if n := missing.settle(5); n != 1 || missing.f.gap != 1 {
		t.Fatalf("missing sample not caught: settle %d, %s", n, missing.f)
	}
	if n := missing.settle(5); n != 0 {
		t.Fatalf("gap reported twice: %d", n)
	}
	var tail seqChecker
	tail.observe(0, true)
	if n := tail.settle(3); n != 2 {
		t.Fatalf("missing tail samples: got %d, want 2", n)
	}

	var late seqChecker
	late.observe(0, true)
	late.settle(3) // samples 1 and 2 counted missing
	late.observe(1, true)
	if late.f.late != 1 || late.f.reorder != 0 {
		t.Fatalf("late sample miscounted: %s", late.f)
	}

	var ooo seqChecker
	for _, i := range []int64{0, 2, 1} {
		ooo.observe(i, true)
	}
	if ooo.f.reorder != 1 {
		t.Fatalf("out-of-order sample not caught: %s", ooo.f)
	}

	var corrupt seqChecker
	corrupt.observe(0, false)
	if corrupt.f.corrupt != 1 {
		t.Fatalf("corrupt sample not caught: %s", corrupt.f)
	}
}

func TestCheckHashRejectsMismatch(t *testing.T) {
	if err := checkHash("dataset", "abc", "abc"); err != nil {
		t.Fatal(err)
	}
	if err := checkHash("dataset", "abc", "abd"); err == nil {
		t.Fatal("hash mismatch not reported")
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	base := time.Now()
	at := func(us int) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	tr := newTracer(base, 100)
	root := tr.record("root", noSpan, 1, at(0), at(100))
	tr.record("child", root, 1, at(10), at(30))
	tr.record("child", root, 1, at(20), at(40))  // overlaps the first
	tr.record("child", root, 1, at(90), at(120)) // runs past the parent
	l := tr.analyze()
	if got := l["root"].self.mean(); got != 100-30-10 {
		t.Fatalf("root self time %v us, want 60", got)
	}
	if got := l["child"].dur.n(); got != 3 {
		t.Fatalf("%d child spans, want 3", got)
	}
	var off *tracer
	if off.begin("x", noSpan, 0, base) != noSpan {
		t.Fatal("nil tracer must record nothing")
	}
}

func TestSpansHoldEnoughSamplesForP99(t *testing.T) {
	for _, c := range []struct{ n, want int }{{500, 10}, {24000, 24}, {1 << 20, 100}} {
		if got := spans(c.n); got != c.want {
			t.Errorf("spans(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestLatencyMetricsKeepTheWholeWindowTail(t *testing.T) {
	var w window
	for i := int64(0); i < 10000; i++ {
		lat := 1.0
		if i < 7000 && i%1000 < 20 { // a stall in seven of ten sub-windows
			lat = 50
		}
		w.add(i, lat)
	}
	w.attempted = 10000
	// The sub-window diagnostic reads past the stall ...
	if p50, p99, mean := w.quiet(10); p50 != 1 || p99 != 1 || mean != 1 {
		t.Fatalf("quiet latency p50=%v p99=%v mean=%v, want 1", p50, p99, mean)
	}
	// ... and the end-to-end metrics do not: 1.4% of the samples are slow.
	o := newOutcome()
	o.setLatency(&w, 10)
	if o.e2e["latency_p50_ms"] != 1 || o.e2e["latency_p99_ms"] != 50 {
		t.Fatalf("latency p50=%v p99=%v, want 1 and 50", o.e2e["latency_p50_ms"], o.e2e["latency_p99_ms"])
	}
	if want := metrics.ReLate2(1000*(1+0.014*49), 0); math.Abs(o.e2e["relate2"]-want) > 1e-6 {
		t.Fatalf("relate2 %v, want %v from the whole-window mean", o.e2e["relate2"], want)
	}
	var slow window
	for i := int64(0); i < 10000; i++ {
		lat := 1.0
		if i%50 == 0 { // the system stalls in every sub-window
			lat = 50
		}
		slow.add(i, lat)
	}
	if p99 := slow.settled(); p99 != 50 {
		t.Fatalf("settled p99 %v, want 50", p99)
	}
}

func TestLadderIsFivePercentSteps(t *testing.T) {
	w := workloadSpec{LadderFromHz: 120, LadderToHz: 161}
	got := w.ladder()
	want := []float64{120, 126, 132, 139, 146, 153, 161}
	if len(got) != len(want) {
		t.Fatalf("ladder %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ladder %v, want %v", got, want)
		}
	}
}
