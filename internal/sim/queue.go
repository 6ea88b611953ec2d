package sim

import "math/bits"

// The kernel's pending-event set is a hybrid of three monomorphic
// containers, all ordered by the same (key, seq) total order:
//
//   - a timer wheel of wheelSlots buckets, each tickNanos wide, holding the
//     near-future events that packet-hop simulation churns (arrival and
//     CPU-done callbacks scheduled µs–ms ahead): O(1) insert, O(1) cancel;
//   - the "cur" 4-ary min-heap, holding events in the wheel's current tick
//     (including events inserted *during* the current tick, e.g. Post /
//     Schedule(0) storms) — the wheel bucket being drained, kept as a real
//     heap so same-instant FIFO order is exact, not bucket-approximate;
//   - the "far" 4-ary min-heap for the long tail beyond the wheel horizon
//     (protocol timers, experiment deadlines).
//
// Correctness invariant: every event in a wheel bucket has tick strictly
// greater than wheel.curTick, and every event in cur has tick <= curTick,
// so cur.min always precedes every wheel event. The global minimum is
// therefore min(cur.min, far.min) once promote() has drained the earliest
// occupied bucket into cur. far is compared on every pop because events
// that were beyond the horizon when inserted become due as time advances
// without ever migrating.
//
// Everything is keyed on int64 UnixNano. Within the range of times a
// simulation can reach (the epoch is 2010; UnixNano is valid until 2262)
// this ordering is identical to time.Time.Before/Equal on wall-clock
// times, which is what the previous container/heap implementation used.
const (
	tickShift  = 14 // 16.384 µs per wheel tick
	tickNanos  = 1 << tickShift
	wheelSlots = 1024 // horizon = slots * tick ≈ 16.8 ms
	wheelMask  = wheelSlots - 1
	wheelWords = wheelSlots / 64
)

// Event location tags stored in event.where. Non-negative values are wheel
// slot numbers.
const (
	locNone int32 = -1
	locCur  int32 = -2
	locFar  int32 = -3
)

// evLess is the scheduler's total order: time, then FIFO by sequence.
func evLess(a, b *event) bool {
	return a.key < b.key || (a.key == b.key && a.seq < b.seq)
}

// evHeap is a monomorphic 4-ary min-heap of events. Four-way branching
// halves the tree depth of a binary heap, and sifting compares inline int64
// keys instead of going through heap.Interface with any-boxed Push/Pop.
// Each event records its heap index so Cancel stays O(log n).
type evHeap struct {
	ev  []*event
	loc int32 // stamped into event.where on insert (locCur or locFar)
}

func (h *evHeap) push(e *event) {
	e.where = h.loc
	i := len(h.ev)
	h.ev = append(h.ev, e)
	h.up(i, e)
}

// up sifts e toward the root from position i, moving blockers down.
func (h *evHeap) up(i int, e *event) {
	for i > 0 {
		p := (i - 1) >> 2
		if !evLess(e, h.ev[p]) {
			break
		}
		h.ev[i] = h.ev[p]
		h.ev[i].index = int32(i)
		i = p
	}
	h.ev[i] = e
	e.index = int32(i)
}

// down sifts e toward the leaves from position i.
func (h *evHeap) down(i int, e *event) {
	n := len(h.ev)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if evLess(h.ev[j], h.ev[m]) {
				m = j
			}
		}
		if !evLess(h.ev[m], e) {
			break
		}
		h.ev[i] = h.ev[m]
		h.ev[i].index = int32(i)
		i = m
	}
	h.ev[i] = e
	e.index = int32(i)
}

// pop removes and returns the minimum event.
func (h *evHeap) pop() *event {
	e := h.ev[0]
	n := len(h.ev) - 1
	last := h.ev[n]
	h.ev[n] = nil
	h.ev = h.ev[:n]
	if n > 0 {
		h.down(0, last)
	}
	e.index = -1
	e.where = locNone
	return e
}

// remove deletes the event at index i (Cancel path).
func (h *evHeap) remove(i int32) {
	e := h.ev[i]
	n := len(h.ev) - 1
	last := h.ev[n]
	h.ev[n] = nil
	h.ev = h.ev[:n]
	if int(i) < n {
		// Reinsert the displaced last element at i: it may need to move
		// either direction, so sift down then up (one of the two is a no-op).
		h.down(int(i), last)
		h.up(int(i), h.ev[i])
	}
	e.index = -1
	e.where = locNone
}

// wheel is the short-horizon timer wheel. Buckets are unsorted slices —
// order within a bucket is established only when the bucket is promoted
// into the cur heap — with an occupancy bitmap so finding the next
// non-empty bucket is a handful of word scans instead of a 1024-slot walk.
type wheel struct {
	slots   [wheelSlots][]*event
	bitmap  [wheelWords]uint64
	count   int
	curTick int64 // tick of the bucket currently draining through cur
}

func (w *wheel) insert(e *event, tn int64) {
	s := int32(tn & wheelMask)
	e.where = s
	e.index = int32(len(w.slots[s]))
	w.slots[s] = append(w.slots[s], e)
	w.bitmap[s>>6] |= 1 << (uint(s) & 63)
	w.count++
}

// remove deletes e from its bucket by swap-with-last: O(1).
func (w *wheel) remove(e *event) {
	s := e.where
	sl := w.slots[s]
	n := len(sl) - 1
	moved := sl[n]
	sl[e.index] = moved
	moved.index = e.index
	sl[n] = nil
	w.slots[s] = sl[:n]
	if n == 0 {
		w.bitmap[s>>6] &^= 1 << (uint(s) & 63)
	}
	w.count--
	e.index = -1
	e.where = locNone
}

// nextTick returns the absolute tick and slot of the first occupied bucket
// after curTick. All wheel events live in (curTick, curTick+wheelSlots), so
// a single circular pass over the bitmap must find one; the caller
// guarantees count > 0.
func (w *wheel) nextTick() (int64, int32) {
	base := w.curTick + 1
	for off := int64(0); off < wheelSlots; {
		s := (base + off) & wheelMask
		word := w.bitmap[s>>6] >> (uint(s) & 63)
		if word != 0 {
			off += int64(bits.TrailingZeros64(word))
			if off >= wheelSlots {
				break
			}
			return base + off, int32((base + off) & wheelMask)
		}
		off += 64 - (int64(s) & 63)
	}
	panic("sim: timer wheel occupancy bitmap out of sync")
}
