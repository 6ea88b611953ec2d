package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestKernelStartsAtEpoch(t *testing.T) {
	k := New(1)
	if !k.Now().Equal(Epoch) {
		t.Errorf("Now() = %v, want %v", k.Now(), Epoch)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	k := New(1)
	var order []int
	k.After(30*time.Millisecond, func() { order = append(order, 3) })
	k.After(10*time.Millisecond, func() { order = append(order, 1) })
	k.After(20*time.Millisecond, func() { order = append(order, 2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	k := New(1)
	var order []int
	at := k.Now().Add(5 * time.Millisecond)
	for i := 0; i < 10; i++ {
		i := i
		k.At(at, func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(order) {
		t.Errorf("same-instant events fired out of scheduling order: %v", order)
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	k := New(1)
	var at time.Time
	k.After(42*time.Millisecond, func() { at = k.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := Epoch.Add(42 * time.Millisecond); !at.Equal(want) {
		t.Errorf("callback saw Now() = %v, want %v", at, want)
	}
}

func TestPastEventsClampToNow(t *testing.T) {
	k := New(1)
	k.After(10*time.Millisecond, func() {
		k.At(Epoch, func() {
			if k.Now().Before(Epoch.Add(10 * time.Millisecond)) {
				t.Error("clock moved backwards")
			}
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCancel(t *testing.T) {
	k := New(1)
	fired := false
	e := k.After(time.Millisecond, func() { fired = true })
	if !e.Stop() {
		t.Error("first Stop returned false")
	}
	if e.Stop() {
		t.Error("second Stop returned true; want idempotent false")
	}
	if len(k.free) != 1 {
		t.Errorf("free list holds %d events after Stop, want 1", len(k.free))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("canceled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	k := New(1)
	e := k.After(time.Millisecond, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Stop() {
		t.Error("Stop after fire returned true")
	}
}

func TestCancelNil(t *testing.T) {
	var e Timer
	if e.Stop() {
		t.Error("zero Timer Stop returned true")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	k := New(1)
	var fired []int
	events := make([]Timer, 20)
	for i := range events {
		i := i
		events[i] = k.After(time.Duration(i)*time.Millisecond, func() { fired = append(fired, i) })
	}
	for i := 5; i < 15; i++ {
		events[i].Stop()
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 10 {
		t.Fatalf("fired %d events, want 10: %v", len(fired), fired)
	}
	if !sort.IntsAreSorted(fired) {
		t.Errorf("fired out of order after cancels: %v", fired)
	}
}

func TestRunUntil(t *testing.T) {
	k := New(1)
	var fired []int
	k.After(10*time.Millisecond, func() { fired = append(fired, 1) })
	k.After(30*time.Millisecond, func() { fired = append(fired, 2) })
	deadline := Epoch.Add(20 * time.Millisecond)
	if err := k.RunUntil(deadline); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 {
		t.Errorf("fired = %v, want just the first event", fired)
	}
	if !k.Now().Equal(deadline) {
		t.Errorf("Now() = %v, want clock advanced to deadline %v", k.Now(), deadline)
	}
	if k.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", k.Pending())
	}
}

func TestRunFor(t *testing.T) {
	k := New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		k.After(time.Second, tick)
	}
	k.After(time.Second, tick)
	if err := k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("ticked %d times in 10s, want 10", n)
	}
}

func TestEventLimit(t *testing.T) {
	k := New(1)
	k.SetEventLimit(100)
	var loop func()
	loop = func() { k.After(time.Microsecond, loop) }
	k.After(0, loop)
	if err := k.Run(); !errors.Is(err, ErrEventLimit) {
		t.Errorf("err = %v, want ErrEventLimit", err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed int64) []int64 {
		k := New(seed)
		rng := k.Rand("workload")
		var draws []int64
		var tick func()
		tick = func() {
			draws = append(draws, rng.Int63())
			if len(draws) < 50 {
				k.After(time.Duration(rng.Intn(1000))*time.Microsecond, tick)
			}
		}
		k.After(0, tick)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return draws
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at draw %d", i)
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical draws")
	}
}

func TestRandStreamsIndependent(t *testing.T) {
	k := New(3)
	a := k.Rand("alpha")
	b := k.Rand("beta")
	a2 := k.Rand("alpha")
	if a.Int63() != a2.Int63() {
		t.Error("equal stream names must yield identical streams")
	}
	equal := 0
	for i := 0; i < 20; i++ {
		if a.Int63() == b.Int63() {
			equal++
		}
	}
	if equal > 2 {
		t.Errorf("streams alpha and beta look correlated: %d equal draws", equal)
	}
}

func TestDeriveSeedDistinct(t *testing.T) {
	seen := map[int64]string{}
	names := []string{"", "a", "b", "ab", "ba", "node-1", "node-2", "loss", "cpu"}
	for _, n := range names {
		s := DeriveSeed(42, n)
		if prev, ok := seen[s]; ok {
			t.Errorf("DeriveSeed collision between %q and %q", prev, n)
		}
		seen[s] = n
	}
	if DeriveSeed(1, "x") == DeriveSeed(2, "x") {
		t.Error("same name with different seeds must differ")
	}
}

// Property: any batch of events with arbitrary delays fires in nondecreasing
// time order, and the clock never moves backwards.
func TestHeapOrderingProperty(t *testing.T) {
	f := func(delaysRaw []uint32) bool {
		if len(delaysRaw) > 200 {
			delaysRaw = delaysRaw[:200]
		}
		k := New(11)
		var times []time.Time
		for _, d := range delaysRaw {
			k.After(time.Duration(d%1_000_000)*time.Microsecond, func() {
				times = append(times, k.Now())
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i].Before(times[i-1]) {
				return false
			}
		}
		return len(times) == len(delaysRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: random interleaving of schedules and cancels never corrupts the
// heap: every non-canceled event fires exactly once, in order.
func TestScheduleCancelProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := New(seed)
		fired := map[int]int{}
		var events []Timer
		canceled := map[int]bool{}
		n := 100
		for i := 0; i < n; i++ {
			i := i
			events = append(events, k.After(time.Duration(rng.Intn(5000))*time.Microsecond,
				func() { fired[i]++ }))
			if rng.Intn(3) == 0 && len(events) > 0 {
				victim := rng.Intn(len(events))
				if events[victim].Stop() {
					canceled[victim] = true
				}
			}
		}
		if err := k.Run(); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			want := 1
			if canceled[i] {
				want = 0
			}
			if fired[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestScheduleArgOrderAndPooling pins the closure-free dispatch path: it
// interleaves with Schedule in strict (time, seq) order and recycles events
// through the free list like Schedule does.
func TestScheduleArgOrderAndPooling(t *testing.T) {
	k := New(1)
	var order []int
	at := 3 * time.Millisecond
	k.Schedule(at, func() { order = append(order, 0) })
	k.ScheduleArg(at, func(a any) { order = append(order, a.(int)) }, 1)
	k.Schedule(at, func() { order = append(order, 2) })
	k.ScheduleArg(at, func(a any) { order = append(order, a.(int)) }, 3)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(order) || len(order) != 4 {
		t.Errorf("same-instant Schedule/ScheduleArg fired out of order: %v", order)
	}
	if len(k.free) != 4 {
		t.Errorf("free list holds %d events after run, want 4", len(k.free))
	}
}

// TestScheduleArgAllocationFree verifies the whole point of ScheduleArg: in
// steady state (warm free list, pointer-shaped arg) it never allocates.
func TestScheduleArgAllocationFree(t *testing.T) {
	k := New(1)
	type payload struct{ n int }
	p := &payload{}
	fn := func(a any) { a.(*payload).n++ }
	k.ScheduleArg(time.Microsecond, fn, p) // warm the free list
	k.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		k.ScheduleArg(time.Microsecond, fn, p)
		k.Step()
	})
	if allocs != 0 {
		t.Errorf("ScheduleArg allocated %.1f times per event, want 0", allocs)
	}
}

// TestStaleTimerAfterFireAndReuse: a timer fires, its event is reused by
// the next pooled schedule, and the old handle's Stop must report false
// and leave the new owner's event scheduled.
func TestStaleTimerAfterFireAndReuse(t *testing.T) {
	k := New(1)
	old := k.After(time.Millisecond, func() {})
	k.Step()
	fired := false
	k.Schedule(time.Millisecond, func() { fired = true })
	if len(k.free) != 0 {
		t.Fatal("the fired event was not reused; the test needs reuse to mean anything")
	}
	if old.Stop() {
		t.Error("stale Stop after fire-and-reuse returned true")
	}
	if k.Pending() != 1 {
		t.Errorf("pending = %d after stale Stop, want 1", k.Pending())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("the reused event was canceled through a stale handle")
	}
}

// TestStaleTimerAfterCancelAndReuse: a stopped timer's event is reused by
// the next timer; stopping the old handle again must report false and
// leave the new timer armed.
func TestStaleTimerAfterCancelAndReuse(t *testing.T) {
	k := New(1)
	old := k.After(time.Millisecond, func() { t.Error("stopped timer fired") })
	if !old.Stop() {
		t.Fatal("Stop returned false")
	}
	fired := false
	next := k.After(time.Millisecond, func() { fired = true })
	if next.e != old.e {
		t.Fatal("the stopped event was not reused; the test needs reuse to mean anything")
	}
	if old.Stop() {
		t.Error("stale Stop after cancel-and-reuse returned true")
	}
	if k.Pending() != 1 {
		t.Errorf("pending = %d after stale Stop, want 1", k.Pending())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("the reused event was canceled through a stale handle")
	}
}

// TestStaleTimerStopInsideOwnCallback: a callback that stops its own
// (already firing) timer after scheduling gets false, and the event it
// scheduled survives.
func TestStaleTimerStopInsideOwnCallback(t *testing.T) {
	k := New(1)
	fired := false
	var tm Timer
	tm = k.After(time.Millisecond, func() {
		k.Schedule(time.Millisecond, func() { fired = true })
		if tm.Stop() {
			t.Error("Stop of the firing timer returned true")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("event scheduled from the callback was canceled")
	}
}

// TestTimerAllocationFree: arming and stopping a timer, or letting it
// fire, does not allocate once the free list is warm.
func TestTimerAllocationFree(t *testing.T) {
	k := New(1)
	fn := func() {}
	k.After(time.Microsecond, fn).Stop() // warm the free list
	allocs := testing.AllocsPerRun(1000, func() {
		k.After(time.Millisecond, fn).Stop()
		k.After(time.Microsecond, fn)
		k.Step()
	})
	if allocs != 0 {
		t.Errorf("After allocated %.1f times per arm, want 0", allocs)
	}
}

// TestWheelHorizonBoundary schedules events just inside, exactly at, and
// beyond the wheel horizon and checks global fire order across the three
// internal containers.
func TestWheelHorizonBoundary(t *testing.T) {
	k := New(1)
	horizon := time.Duration(wheelSlots * tickNanos)
	delays := []time.Duration{
		0, time.Nanosecond, tickNanos - 1, tickNanos, // cur and first bucket
		horizon - time.Nanosecond, horizon, horizon + time.Nanosecond, // straddle
		10 * horizon, // deep far heap
	}
	var fired []time.Duration
	for _, d := range delays {
		d := d
		k.Schedule(d, func() { fired = append(fired, d) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != len(delays) {
		t.Fatalf("fired %d of %d events", len(fired), len(delays))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("fired out of order: %v", fired)
		}
	}
}

// TestCancelInEveryContainer cancels events parked in the cur heap, a wheel
// bucket, and the far heap, plus one mid-bucket swap-removal.
func TestCancelInEveryContainer(t *testing.T) {
	k := New(1)
	horizon := time.Duration(wheelSlots * tickNanos)
	fired := 0
	count := func() { fired++ }
	cur := k.After(0, count)                   // current tick → cur heap
	wheelA := k.After(time.Millisecond, count) // wheel bucket
	wheelB := k.After(time.Millisecond, count) // same bucket, swap-remove path
	far := k.After(horizon+time.Second, count) // far heap
	keep := k.After(2*time.Millisecond, count) // survives
	for _, e := range []Timer{cur, wheelA, far} {
		if !e.Stop() {
			t.Fatal("Stop returned false for a queued event")
		}
		if e.Stop() {
			t.Fatal("second Stop returned true")
		}
	}
	if !wheelB.Stop() {
		t.Fatal("Stop of bucket-mate returned false")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (only the kept event)", fired)
	}
	if keep.Stop() {
		t.Error("Stop after fire returned true")
	}
}

// TestPendingAcrossContainers checks Pending sums all three containers.
func TestPendingAcrossContainers(t *testing.T) {
	k := New(1)
	horizon := time.Duration(wheelSlots * tickNanos)
	k.After(0, func() {})
	k.After(time.Millisecond, func() {})
	k.After(horizon+time.Minute, func() {})
	if got := k.Pending(); got != 3 {
		t.Errorf("Pending() = %d, want 3", got)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := k.Pending(); got != 0 {
		t.Errorf("Pending() after Run = %d, want 0", got)
	}
}

// TestRunUntilAcrossWheel drains exactly the events at or before the
// deadline even when they span wheel buckets and the far heap.
func TestRunUntilAcrossWheel(t *testing.T) {
	k := New(1)
	horizon := time.Duration(wheelSlots * tickNanos)
	var fired []int
	k.After(time.Millisecond, func() { fired = append(fired, 1) })
	k.After(horizon+time.Second, func() { fired = append(fired, 2) })
	deadline := Epoch.Add(horizon + time.Second)
	if err := k.RunUntil(deadline); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Errorf("fired = %v, want both events (deadline inclusive)", fired)
	}
	if !k.Now().Equal(deadline) {
		t.Errorf("Now() = %v, want %v", k.Now(), deadline)
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	k := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.After(time.Microsecond, func() {})
		k.Step()
	}
}

// BenchmarkSchedulePooled measures the fire-and-forget path: after warmup
// every event comes from the kernel free list, so steady state allocates
// nothing per event.
func BenchmarkSchedulePooled(b *testing.B) {
	k := New(1)
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Schedule(time.Microsecond, fn)
		k.Step()
	}
}

// BenchmarkScheduleArg measures the closure-free dispatch path.
func BenchmarkScheduleArg(b *testing.B) {
	k := New(1)
	fn := func(any) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.ScheduleArg(time.Microsecond, fn, nil)
		k.Step()
	}
}

// BenchmarkScheduleDeep measures steady-state pop/push with a large pending
// set: 100k events resident, delays straddling the wheel horizon, so every
// container is exercised.
func BenchmarkScheduleDeep(b *testing.B) {
	k := New(1)
	fn := func() {}
	rng := rand.New(rand.NewSource(7))
	delay := func() time.Duration {
		if rng.Intn(5) == 0 {
			return time.Duration(rng.Intn(200_000)) * time.Microsecond // far heap
		}
		return time.Duration(rng.Intn(10_000)) * time.Microsecond // wheel
	}
	for i := 0; i < 100_000; i++ {
		k.Schedule(delay(), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(delay(), fn)
		k.Step()
	}
}
