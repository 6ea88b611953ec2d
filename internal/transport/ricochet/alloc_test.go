package ricochet

import (
	"testing"
	"time"

	"adamant/internal/env"
	"adamant/internal/sim"
	"adamant/internal/transport"
	"adamant/internal/transport/transporttest"
	"adamant/internal/wire"
)

// TestRepairAllocs pins the receive side of lateral repair: decoding into
// the receiver's scratch Repair, a repair that recovers a packet
// allocates only the recovered packet and its payload, and a repair that
// covers nothing missing allocates nothing.
func TestRepairAllocs(t *testing.T) {
	k := sim.New(1)
	e := env.NewSim(k)
	fab := transporttest.New(e, time.Millisecond)
	delivered := 0
	r, err := NewReceiver(transport.Config{
		Env:       e,
		Endpoint:  fab.Endpoint(1),
		Stream:    1,
		Receivers: transport.StaticReceivers(1, 2, 3),
		Deliver:   func(transport.Delivery) { delivered++ },
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var pkts []*wire.Packet
	var rep wire.Repair
	for seq := uint64(1); seq <= 4; seq++ {
		p := &wire.Packet{Type: wire.TypeData, Stream: 1, Seq: seq, SentAt: time.Unix(0, int64(seq)), Payload: []byte("payload-of-sample")}
		pkts = append(pkts, p)
		rep.AddPacket(p)
	}
	for _, p := range pkts[:3] {
		r.store(p)
	}
	repairPkt := func(rep *wire.Repair) *wire.Packet {
		body, err := rep.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		return &wire.Packet{Type: wire.TypeRepair, Src: 2, Stream: 1, Seq: rep.Seqs[len(rep.Seqs)-1], Payload: body}
	}
	decodable := repairPkt(&rep)
	var held wire.Repair
	for _, p := range pkts[:3] {
		held.AddPacket(p)
	}
	useless := repairPkt(&held)

	// Each round forgets seq 4 again so the repair stays decodable, then
	// lets the delayed recovered delivery fire.
	recoverOne := func() {
		delete(r.window, 4)
		r.onRepair(2, decodable)
		if err := k.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	recoverOne() // warm the scratch buffers and the emit pool
	used := r.stats.RepairsUsed
	if got := testing.AllocsPerRun(100, recoverOne); got > 2 {
		t.Errorf("decodable repair: %.1f allocs, want <= 2 (the recovered packet and its payload)", got)
	}
	if r.stats.RepairsUsed-used != 101 || delivered != 102 {
		t.Fatalf("RepairsUsed grew by %d, %d delivered: the pinned path did not recover", r.stats.RepairsUsed-used, delivered)
	}
	if got := string(r.window[4].Payload); got != "payload-of-sample" {
		t.Fatalf("recovered payload %q", got)
	}
	if got := testing.AllocsPerRun(100, func() { r.onRepair(2, useless) }); got != 0 {
		t.Errorf("useless repair: %.1f allocs, want 0", got)
	}
	if len(r.pending) != 0 {
		t.Fatalf("%d repairs pending", len(r.pending))
	}
}
