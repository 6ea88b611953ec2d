// Package sim provides a deterministic discrete-event simulation kernel: a
// virtual clock, an event queue, and seeded random-number streams.
//
// The kernel is the substitute for the paper's Emulab testbed time base.
// Everything above it (network emulation, transport protocols, middleware)
// is written against the environment abstraction in package env, so the same
// protocol code runs under this kernel in virtual time and under the real
// clock in the examples.
//
// The event queue is a hybrid scheduler (see queue.go): a short-horizon
// timer wheel absorbs the dense near-future churn of packet-hop simulation
// at O(1) per insert/cancel, backed by monomorphic index-tracking 4-ary
// min-heaps for the current tick and the long tail. There is no interface
// boxing anywhere on the hot path.
//
// Determinism contract: given the same seed and the same sequence of
// Schedule calls, a simulation produces bit-identical event orderings.
// Events scheduled for the same instant fire in scheduling order. This
// holds regardless of which internal container an event passes through:
// all three share one (time, seq) total order.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Epoch is the virtual time at which every simulation starts. The concrete
// value is arbitrary; a fixed nonzero epoch catches code that confuses
// wall-clock and simulated time.
var Epoch = time.Date(2010, time.November, 29, 0, 0, 0, 0, time.UTC)

// event is a scheduled callback. Every event comes from the kernel's free
// list and goes back to it once it fires or is stopped, so the only handle
// that escapes to callers is a Timer, which checks the event's sequence
// number before touching it.
type event struct {
	at  time.Time
	key int64  // at.UnixNano(): the scheduler ordering key
	seq uint64 // tie-breaker: FIFO among events at the same instant
	fn  func()
	// argFn/arg are the closure-free dispatch path used by ScheduleArg: hot
	// paths pass a static function and a pooled argument instead of
	// allocating a capturing closure per event.
	argFn func(any)
	arg   any
	owner *Kernel
	where int32 // container tag: locCur, locFar, or a wheel slot number
	index int32 // position within the container, -1 once fired or canceled
}

// cancel removes the event from the queue. It returns false if the event
// already fired or was already canceled.
func (e *event) cancel() bool {
	if e.index < 0 || (e.fn == nil && e.argFn == nil) {
		return false
	}
	k := e.owner
	switch e.where {
	case locCur:
		k.cur.remove(e.index)
	case locFar:
		k.far.remove(e.index)
	default:
		k.w.remove(e)
	}
	e.fn = nil
	e.argFn = nil
	e.arg = nil
	return true
}

// Timer is the handle At and After return. The event behind it is pooled:
// once it fires or is stopped the kernel may hand it to a later event. The
// handle therefore keeps the sequence number the event was scheduled under,
// and Stop acts only while the event still carries it, so a stale handle
// never touches the event's next owner. Sequence numbers are never reused
// within a kernel, so the check cannot be fooled by a recycled event.
type Timer struct {
	e   *event
	seq uint64
}

// Stop cancels the timer and returns its event to the kernel's free list.
// It returns false if the callback already ran, the timer was already
// stopped, or t is the zero Timer. After Stop returns true the callback
// never runs.
func (t Timer) Stop() bool {
	e := t.e
	if e == nil || e.seq != t.seq || !e.cancel() {
		return false
	}
	e.owner.recycle(e)
	return true
}

// Kernel is a single-threaded discrete-event executor. It is not safe for
// concurrent use: all scheduling must happen from the driving goroutine or
// from within event callbacks (which the kernel runs serially).
type Kernel struct {
	now    time.Time
	nowKey int64 // now.UnixNano()
	cur    evHeap
	far    evHeap
	w      wheel
	nextID uint64
	seed   int64
	fired  uint64
	// maxEvents guards against runaway event loops in tests; 0 = unlimited.
	maxEvents uint64
	// free recycles fired and stopped events. Packet-hop simulations
	// churn one event per hop, so reuse keeps the workers out of the
	// allocator on the hot path.
	free []*event
}

// maxFreeEvents bounds the free list so a scheduling burst cannot pin an
// arbitrarily large pool of dead events.
const maxFreeEvents = 1 << 15

// New returns a kernel with its clock at Epoch, deriving all randomness from
// seed.
func New(seed int64) *Kernel {
	k := &Kernel{now: Epoch, nowKey: Epoch.UnixNano(), seed: seed}
	k.cur.loc = locCur
	k.far.loc = locFar
	k.w.curTick = k.nowKey >> tickShift
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Time { return k.now }

// Seed returns the seed the kernel was created with.
func (k *Kernel) Seed() int64 { return k.seed }

// Fired returns the number of events executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// Pending returns the number of events waiting in the queue.
func (k *Kernel) Pending() int { return len(k.cur.ev) + len(k.far.ev) + k.w.count }

// SetEventLimit bounds the total number of events Run will execute; 0 means
// unlimited. Exceeding the limit makes Run return ErrEventLimit.
func (k *Kernel) SetEventLimit(n uint64) { k.maxEvents = n }

// ErrEventLimit is returned by the run methods when the configured event
// limit is exceeded, which almost always indicates a protocol timer loop
// that fails to terminate.
var ErrEventLimit = errors.New("sim: event limit exceeded")

// enqueue routes an event to the container matching its tick: current tick
// (or due now) to the cur heap, within the wheel horizon to a wheel bucket,
// beyond it to the far heap.
func (k *Kernel) enqueue(e *event) {
	tn := e.key >> tickShift
	switch {
	case tn <= k.w.curTick:
		k.cur.push(e)
	case tn-k.w.curTick < wheelSlots:
		k.w.insert(e, tn)
	default:
		k.far.push(e)
	}
}

// At schedules fn to run at virtual time t and returns a Timer that can
// stop it. Times in the past (before Now) are clamped to Now, preserving
// causal ordering. The event is recycled once it fires or is stopped, so
// code that arms and stops timers (retransmission, flush and heartbeat
// timers) does not allocate an event per arm once the simulation is warm.
func (k *Kernel) At(t time.Time, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil callback") // programmer error, not runtime condition
	}
	key := t.UnixNano()
	if key < k.nowKey {
		key = k.nowKey
		t = k.now
	}
	e := k.enqueuePooled(key, t, fn, nil, nil)
	return Timer{e: e, seq: e.seq}
}

// After schedules fn to run d from now, as At does. Negative d is treated
// as zero.
func (k *Kernel) After(d time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: After called with nil callback")
	}
	e := k.schedulePooled(d, fn, nil, nil)
	return Timer{e: e, seq: e.seq}
}

// Schedule is the fire-and-forget form of After: fn runs d from now and the
// event cannot be canceled. Because no handle escapes, the kernel recycles
// the event through an internal free list after it fires, so hot paths that
// never cancel (packet hops, delivery callbacks) schedule without
// allocating. Ordering is identical to After: events fire by (time, FIFO).
func (k *Kernel) Schedule(d time.Duration, fn func()) {
	if fn == nil {
		panic("sim: Schedule called with nil callback")
	}
	k.schedulePooled(d, fn, nil, nil)
}

// ScheduleArg is the closure-free form of Schedule: at the scheduled time
// the kernel calls fn(arg). Hot paths that would otherwise allocate a
// capturing closure per event (one per packet hop) pass a static function
// and a pooled argument instead; combined with the event free list the
// steady-state cost is zero allocations per event. Ordering is identical to
// Schedule.
func (k *Kernel) ScheduleArg(d time.Duration, fn func(arg any), arg any) {
	if fn == nil {
		panic("sim: ScheduleArg called with nil callback")
	}
	k.schedulePooled(d, nil, fn, arg)
}

func (k *Kernel) schedulePooled(d time.Duration, fn func(), argFn func(any), arg any) *event {
	if d < 0 {
		d = 0
	}
	return k.enqueuePooled(k.nowKey+int64(d), k.now.Add(d), fn, argFn, arg)
}

// enqueuePooled takes an event from the free list (or allocates one),
// stamps it with the next sequence number and queues it.
func (k *Kernel) enqueuePooled(key int64, at time.Time, fn func(), argFn func(any), arg any) *event {
	var e *event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		e = &event{owner: k}
	}
	// Field by field rather than *e = event{...}: a whole-struct store
	// goes through the bulk write barrier while the GC is marking, which
	// on packet-hop workloads cost more than the rest of the insert. A
	// recycled event already has its owner.
	e.at, e.key, e.seq = at, key, k.nextID
	e.fn, e.argFn, e.arg = fn, argFn, arg
	k.nextID++
	k.enqueue(e)
	return e
}

// recycle returns a fired or canceled event to the free list.
func (k *Kernel) recycle(e *event) {
	if len(k.free) < maxFreeEvents {
		k.free = append(k.free, e)
	}
}

// promote drains the earliest occupied wheel bucket into the cur heap when
// cur is empty, establishing exact (time, seq) order among that bucket's
// events. After promote, the global minimum is the smaller of cur.min and
// far.min.
func (k *Kernel) promote() {
	for len(k.cur.ev) == 0 && k.w.count > 0 {
		tick, slot := k.w.nextTick()
		k.w.curTick = tick
		k.w.bitmap[slot>>6] &^= 1 << (uint(slot) & 63)
		sl := k.w.slots[slot]
		k.w.count -= len(sl)
		for i, e := range sl {
			sl[i] = nil
			k.cur.push(e)
		}
		k.w.slots[slot] = sl[:0]
	}
}

// popMin removes and returns the (time, seq)-smallest pending event, or nil.
func (k *Kernel) popMin() *event {
	k.promote()
	switch {
	case len(k.cur.ev) == 0 && len(k.far.ev) == 0:
		return nil
	case len(k.far.ev) == 0:
		return k.cur.pop()
	case len(k.cur.ev) == 0:
		return k.far.pop()
	case evLess(k.far.ev[0], k.cur.ev[0]):
		return k.far.pop()
	default:
		return k.cur.pop()
	}
}

// peekKey returns the key of the earliest pending event without removing it.
func (k *Kernel) peekKey() (int64, bool) {
	k.promote()
	switch {
	case len(k.cur.ev) == 0 && len(k.far.ev) == 0:
		return 0, false
	case len(k.far.ev) == 0:
		return k.cur.ev[0].key, true
	case len(k.cur.ev) == 0:
		return k.far.ev[0].key, true
	case evLess(k.far.ev[0], k.cur.ev[0]):
		return k.far.ev[0].key, true
	default:
		return k.cur.ev[0].key, true
	}
}

// Step fires the earliest pending event, advancing the clock to its time.
// It returns false if the queue is empty.
func (k *Kernel) Step() bool {
	e := k.popMin()
	if e == nil {
		return false
	}
	k.now = e.at
	k.nowKey = e.key
	fn, argFn, arg := e.fn, e.argFn, e.arg
	e.fn, e.argFn, e.arg = nil, nil, nil
	k.fired++
	k.recycle(e)
	if argFn != nil {
		argFn(arg)
	} else {
		fn()
	}
	return true
}

// Run executes events until the queue is empty.
func (k *Kernel) Run() error {
	for k.Step() {
		if k.maxEvents > 0 && k.fired > k.maxEvents {
			return fmt.Errorf("%w: %d events", ErrEventLimit, k.fired)
		}
	}
	return nil
}

// RunUntil executes events with time <= deadline, then advances the clock to
// the deadline. Events scheduled after the deadline remain queued.
func (k *Kernel) RunUntil(deadline time.Time) error {
	deadlineKey := deadline.UnixNano()
	for {
		key, ok := k.peekKey()
		if !ok || key > deadlineKey {
			break
		}
		k.Step()
		if k.maxEvents > 0 && k.fired > k.maxEvents {
			return fmt.Errorf("%w: %d events", ErrEventLimit, k.fired)
		}
	}
	if k.now.Before(deadline) {
		k.now = deadline
		k.nowKey = deadlineKey
	}
	return nil
}

// RunFor executes events for virtual duration d from the current time.
func (k *Kernel) RunFor(d time.Duration) error {
	return k.RunUntil(k.now.Add(d))
}

// Rand returns an independent deterministic random stream derived from the
// kernel seed and the given name. Equal names yield identical streams;
// distinct names yield decorrelated streams. Components should each own a
// named stream so that adding a component does not perturb others' draws.
func (k *Kernel) Rand(name string) *rand.Rand {
	return rand.New(rand.NewSource(DeriveSeed(k.seed, name)))
}

// DeriveSeed mixes a base seed with a component name into a new seed using
// an FNV-1a / splitmix64 construction. It is exported for components that
// need raw seeds rather than *rand.Rand streams.
func DeriveSeed(seed int64, name string) int64 {
	h := uint64(1469598103934665603) // FNV offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211 // FNV prime
	}
	h ^= uint64(seed)
	// splitmix64 finalizer for avalanche.
	h += 0x9E3779B97F4A7C15
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	h ^= h >> 31
	return int64(h)
}
