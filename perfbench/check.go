package main

import "fmt"

// faults counts correctness violations found by a checker.
type faults struct {
	dup, reorder, gap, unexpected, corrupt int64
	// late counts deliveries that arrived after their window was settled
	// and already counted them missing: not a fault of their own.
	late int64
}

func (f faults) total() int64 { return f.dup + f.reorder + f.gap + f.unexpected + f.corrupt }

func (f faults) String() string {
	return fmt.Sprintf("dup=%d reorder=%d gap=%d unexpected=%d corrupt=%d late=%d",
		f.dup, f.reorder, f.gap, f.unexpected, f.corrupt, f.late)
}

func (f *faults) add(o faults) {
	f.dup += o.dup
	f.reorder += o.reorder
	f.gap += o.gap
	f.unexpected += o.unexpected
	f.corrupt += o.corrupt
	f.late += o.late
}

// fifoChecker verifies exactly-once, per-subscriber FIFO delivery on a
// fixed subscription set. Sequence numbers are assigned in publish order
// on one connection, so each subscriber must see its matching messages
// with strictly increasing sequence numbers. The receive side (observe)
// runs on one goroutine; expect runs on the publishing goroutine, and the
// two meet only after the caller has synchronized (a drain barrier).
type fifoChecker struct {
	last  []uint64 // per subscriber: last sequence received, 0 for none
	got   []int64  // deliveries received per subscriber since reset
	want  []int64  // deliveries expected per subscriber since reset
	first uint64   // first sequence number of the current window
	f     faults
}

func newFIFOChecker(subs int) *fifoChecker {
	return &fifoChecker{last: make([]uint64, subs), got: make([]int64, subs), want: make([]int64, subs)}
}

// expect records that sub should receive one more message.
func (c *fifoChecker) expect(sub int) { c.want[sub]++ }

// observe checks one delivery. matches is whether the message's subject
// matches the subscriber's pattern (the broker.Match reference).
func (c *fifoChecker) observe(sub int, seq uint64, matches bool) {
	if !matches {
		c.f.unexpected++
		return
	}
	switch last := c.last[sub]; {
	case seq == last:
		c.f.dup++
		return
	case seq < last:
		c.f.reorder++
		return
	}
	c.last[sub] = seq
	if seq < c.first {
		c.f.late++ // published in a window already settled
		return
	}
	c.got[sub]++
}

// settle closes a measurement window: every subscriber must have received
// exactly what it was expected to. It returns the number of missing
// deliveries (also counted as gap faults) and starts a new window whose
// first sequence number is next.
func (c *fifoChecker) settle(next uint64) (missing int64) {
	c.first = next
	for i := range c.want {
		if d := c.want[i] - c.got[i]; d > 0 {
			missing += d
		} else if d < 0 {
			c.f.dup -= d
		}
		c.want[i], c.got[i] = 0, 0
	}
	c.f.gap += missing
	return missing
}

// seqChecker verifies that one DDS reader receives every sample, in write
// order and intact: sample indexes are contiguous from the first one the
// checker is told to expect, and each payload is the one written.
type seqChecker struct {
	next    int64 // next expected sample index
	f       faults
	settled int64 // gaps already reported by settle
	end     int64 // samples below it belong to settled windows
}

// observe checks one delivered sample; intact reports whether its payload
// decoded to what the writer wrote for that index.
func (c *seqChecker) observe(index int64, intact bool) {
	switch {
	case !intact:
		c.f.corrupt++
	case index < c.end && index < c.next:
		c.f.late++ // already counted missing when its window settled
	case index < c.next:
		c.f.reorder++
	case index > c.next:
		c.f.gap += index - c.next
		c.next = index + 1
	default:
		c.next++
	}
}

// settle closes a window ending before sample index end: samples up to it
// that never arrived become gaps, and it returns the gaps found since the
// previous settle (skipped mid-stream or missing at the tail).
func (c *seqChecker) settle(end int64) (missing int64) {
	if end > c.next {
		c.f.gap += end - c.next
		c.next = end
	}
	c.end = end
	missing = c.f.gap - c.settled
	c.settled = c.f.gap
	return missing
}

// checkHash fails when a dataset's CSV hash differs from the golden one.
func checkHash(what, got, want string) error {
	if got != want {
		return fmt.Errorf("%s: CSV sha256 %s, want %s", what, got, want)
	}
	return nil
}
