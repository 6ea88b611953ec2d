package transporttest

import (
	"strings"
	"testing"
	"time"

	"adamant/internal/env"
	"adamant/internal/sim"
	"adamant/internal/wire"
)

// handoffRig is a three-node fabric with every endpoint wrapped by one
// Handoff; node 0 sends, nodes 1 and 2 record what they receive.
func handoffRig(t *testing.T) (*sim.Kernel, *Handoff, [3]*handoffEndpoint, *[]*wire.Packet) {
	t.Helper()
	k := sim.New(1)
	fab := New(env.NewSim(k), time.Millisecond)
	h := NewHandoff()
	var eps [3]*handoffEndpoint
	got := new([]*wire.Packet)
	for i := range eps {
		eps[i] = h.Wrap(fab.Endpoint(wire.NodeID(i))).(*handoffEndpoint)
		eps[i].SetHandler(func(_ wire.NodeID, p *wire.Packet) { *got = append(*got, p) })
	}
	return k, h, eps, got
}

func dataPacket(seq uint64) *wire.Packet {
	return &wire.Packet{Type: wire.TypeData, Stream: 1, Seq: seq, SentAt: sim.Epoch, Payload: []byte("sample")}
}

func run(t *testing.T, k *sim.Kernel) {
	t.Helper()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestHandoffAcceptsWellBehavedSenders: fresh packets per send, and one
// packet re-sent unchanged to several peers, pass.
func TestHandoffAcceptsWellBehavedSenders(t *testing.T) {
	k, h, eps, got := handoffRig(t)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := eps[0].Multicast(dataPacket(seq)); err != nil {
			t.Fatal(err)
		}
	}
	repair := dataPacket(9)
	for _, dst := range []wire.NodeID{1, 2} {
		if err := eps[0].Unicast(dst, repair); err != nil {
			t.Fatal(err)
		}
	}
	run(t, k)
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
	if h.Packets() != 4 || len(*got) != 8 {
		t.Fatalf("%d packets handed off, %d delivered; want 4 and 8", h.Packets(), len(*got))
	}
}

// TestHandoffCatchesResentRewrite is the sender that reuses one packet
// and rewrites its sequence number between sends.
func TestHandoffCatchesResentRewrite(t *testing.T) {
	k, h, eps, _ := handoffRig(t)
	pkt := dataPacket(1)
	for seq := uint64(1); seq <= 3; seq++ {
		pkt.Seq = seq
		if err := eps[0].Multicast(pkt); err != nil {
			t.Fatal(err)
		}
	}
	run(t, k)
	err := h.Check()
	if err == nil || !strings.Contains(err.Error(), "re-sent by node 0") {
		t.Fatalf("Check() = %v, want a re-send violation", err)
	}
}

// TestHandoffCatchesRewriteBeforeDelivery: the sender writes the payload
// of a packet in flight.
func TestHandoffCatchesRewriteBeforeDelivery(t *testing.T) {
	k, h, eps, _ := handoffRig(t)
	pkt := dataPacket(1)
	if err := eps[0].Multicast(pkt); err != nil {
		t.Fatal(err)
	}
	pkt.Payload[0] ^= 0xff
	run(t, k)
	err := h.Check()
	if err == nil || !strings.Contains(err.Error(), "delivered to node") {
		t.Fatalf("Check() = %v, want a delivery violation", err)
	}
}

// TestHandoffCatchesRewriteAfterDelivery: a receiver stamps a packet it
// was handed; only the after-run pass can see it.
func TestHandoffCatchesRewriteAfterDelivery(t *testing.T) {
	k, h, eps, got := handoffRig(t)
	if err := eps[0].Unicast(1, dataPacket(1)); err != nil {
		t.Fatal(err)
	}
	run(t, k)
	(*got)[0].Flags |= wire.FlagRecovered
	err := h.Check()
	if err == nil || !strings.Contains(err.Error(), "found after the run") {
		t.Fatalf("Check() = %v, want an after-run violation", err)
	}
}
