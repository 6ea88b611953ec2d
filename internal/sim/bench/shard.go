package bench

import (
	"time"

	"adamant/internal/netem"
	"adamant/internal/sim"
	"adamant/internal/wire"
)

// ShardPoint is one cell of the shard-scaling table: the multicast-storm
// workload at one group size and one worker count.
type ShardPoint struct {
	Group   int    `json:"group"`
	Workers int    `json:"workers"`
	Events  uint64 `json:"events"`
	// Windows counts conservative-time barrier rounds; events/window is
	// the per-barrier batch size, the quantity that must stay large for
	// worker parallelism to pay for synchronization.
	Windows        uint64  `json:"windows"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	EventsPerSec   float64 `json:"events_per_sec"`
	// SpeedupVs1 is events/sec relative to the workers=1 row of the same
	// group size. On a single-CPU host this hovers near 1.0 by design:
	// worker count changes OS parallelism only, never the event stream.
	SpeedupVs1 float64 `json:"speedup_vs_1"`
}

// ShardScaling runs the multicast storm — one publisher flooding a receiver
// group on a sharded 100 Mb LAN with 5% end-host loss — at every group size
// x worker count cell, firing at least events events per cell. The workload
// is the sharded analogue of NetemPump, so the two tables are comparable;
// determinism across worker counts means every row of a group fires the
// identical event stream and the column differences are pure scheduling.
func ShardScaling(groups, workers []int, events uint64, payload int) ([]ShardPoint, error) {
	points := make([]ShardPoint, 0, len(groups)*len(workers))
	for _, g := range groups {
		var base float64
		for _, w := range workers {
			p := ShardPoint{Group: g, Workers: w}
			var windows uint64
			var runErr error
			res := measure(func() uint64 {
				fired, wins, err := shardStorm(g, w, events, payload)
				windows, runErr = wins, err
				return fired
			})
			if runErr != nil {
				return nil, runErr
			}
			p.Events = res.Events
			p.Windows = windows
			p.NsPerEvent = res.NsPerEvent
			p.AllocsPerEvent = res.AllocsPerEvent
			p.EventsPerSec = res.EventsPerSec
			if w == workers[0] && base == 0 {
				base = res.EventsPerSec
			}
			if base > 0 {
				p.SpeedupVs1 = res.EventsPerSec / base
			}
			points = append(points, p)
		}
	}
	return points, nil
}

// shardStorm builds the sharded storm topology and pumps multicasts until
// the engine has fired at least target events. The pump runs on the
// sender's lane, so it paces by its own packet counter (lane-local state);
// the stop check against Fired happens between pump ticks on the sender
// lane only, which is safe because Fired is read after the engine parks.
func shardStorm(group, workerCount int, target uint64, payload int) (uint64, uint64, error) {
	sh := sim.NewSharded(1, netem.DefaultPropDelay)
	sh.SetWorkers(workerCount)
	net, err := netem.NewSharded(sh, netem.Config{Bandwidth: netem.Mbps100})
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i <= group; i++ {
		n := net.AddNode(netem.PC3000)
		if i > 0 {
			n.SetLoss(5)
			n.SetHandler(func(wire.NodeID, *wire.Packet) {})
		}
	}
	sender := net.Node(0)
	body := make([]byte, payload)
	// Each multicast costs roughly two events per receiver on the sharded
	// engine (a cross-lane arrival plus a CPU-done dispatch), minus the 5%
	// the loss model drops before dispatch; size the packet budget from
	// that with margin and let the tail drain naturally.
	packets := (target*11/10)/uint64(2*group) + 1
	var seq uint64
	var pump func()
	pump = func() {
		if seq >= packets {
			return
		}
		seq++
		// A fresh packet per send (the network owns it once handed off);
		// the read-only payload bytes are shared.
		pkt := &wire.Packet{Type: wire.TypeData, Src: 0, Stream: 1, Seq: seq, SentAt: sender.Env().Now(), Payload: body}
		if err := sender.Multicast(pkt); err != nil {
			panic(err)
		}
		sender.Env().Schedule(500*time.Microsecond, pump)
	}
	sender.Env().Schedule(0, pump)
	if err := sh.Run(); err != nil {
		return 0, 0, err
	}
	return sh.Fired(), sh.Windows(), nil
}
