package main

import "time"

// pacer releases operations open loop: op i is due at a fixed time
// whether or not earlier ops have finished, so a stall in the system under
// test delays later sends and that delay is charged to their latency (no
// coordinated omission). When the period is shorter than minTick, due
// times are quantized to a minTick grid: ops due in the same tick form one
// burst. The tick matches the runtime timer's resolution, so the shape of
// the offered load (rate/1000 ops per burst) does not depend on how
// precisely a given sleep happens to wake.
//
// The pacer sleeps with time.Sleep, which parks the goroutine and leaves
// both CPUs to the system under test. When every P is idle the runtime
// waits for timers in epoll with millisecond timeouts, so a sleep can end
// up to 1 ms late. That lateness is the generator's own, not the system's:
// an op that fell due while the pacer slept is stamped with the wake-up
// time, the moment it could first be sent. Ops that fall due while the
// pacer is busy sending (a send blocked by the system) keep their due
// time, so a stall is charged in full.
type pacer struct {
	start  time.Time
	period time.Duration
	tick   time.Duration
	limit  time.Duration // release lag counted as late
	woke   time.Time     // end of the last sleep

	maxLag time.Duration
	late   int
	n      int
}

const minTick = time.Millisecond

func newPacer(start time.Time, rateHz float64, lagLimit time.Duration) *pacer {
	period := time.Duration(float64(time.Second) / rateHz)
	tick := period
	if tick < minTick {
		tick = minTick
	}
	return &pacer{start: start, period: period, tick: tick, limit: lagLimit}
}

// due returns op i's scheduled send time.
func (p *pacer) due(i int) time.Time {
	off := time.Duration(i) * p.period
	return p.start.Add(off - off%p.tick)
}

// wait blocks until op i is due and returns its intended send time (the
// due time, or the wake-up time for an op that fell due during the sleep)
// and how late it leaves against its due time.
func (p *pacer) wait(i int) (time.Time, time.Duration) {
	due := p.due(i)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
		p.woke = time.Now()
	}
	intended := due
	if due.Before(p.woke) {
		intended = p.woke
	}
	lag := time.Since(due)
	p.n++
	if lag > p.maxLag {
		p.maxLag = lag
	}
	if lag > p.limit {
		p.late++
	}
	return intended, lag
}

// behind reports whether the generator failed to keep to the schedule:
// more than 1% of ops left later than the lag limit.
func (p *pacer) behind() bool { return p.late*100 > p.n }
