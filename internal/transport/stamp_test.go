package transport

import (
	"testing"
	"time"

	"adamant/internal/wire"
)

// sinkEndpoint accepts every send and keeps the packets it was handed.
type sinkEndpoint struct{ sent []*wire.Packet }

func (s *sinkEndpoint) Local() wire.NodeID { return 0 }
func (s *sinkEndpoint) MTU() int           { return 1 << 16 }
func (s *sinkEndpoint) Unicast(_ wire.NodeID, p *wire.Packet) error {
	s.sent = append(s.sent, p)
	return nil
}
func (s *sinkEndpoint) Multicast(p *wire.Packet) error {
	s.sent = append(s.sent, p)
	return nil
}
func (s *sinkEndpoint) Work(time.Duration) time.Duration           { return 0 }
func (s *sinkEndpoint) ScaleCPU(d time.Duration) time.Duration     { return d }
func (s *sinkEndpoint) SetHandler(func(wire.NodeID, *wire.Packet)) {}

// TestEpochStampSparesHandedOffPacket pins the epoch endpoint's stamp
// rule: one packet sent to several peers (Ricochet's repair fan-out) is
// stamped by its first send and only read by the later ones. Between the
// sends a receiver on another lane may already be reading the packet;
// here a goroutine stands in for it, so under -race a stamp that writes
// on every send is reported as a data race.
func TestEpochStampSparesHandedOffPacket(t *testing.T) {
	sink := &sinkEndpoint{}
	ep := newEpochRouter(sink).route(3)
	pkt := &wire.Packet{Type: wire.TypeRepair, Stream: 1, Seq: 7}
	if err := ep.Unicast(1, pkt); err != nil {
		t.Fatal(err)
	}
	read := make(chan uint16)
	go func() { read <- pkt.Epoch }()
	for _, dst := range []wire.NodeID{2, 3} {
		if err := ep.Unicast(dst, pkt); err != nil {
			t.Fatal(err)
		}
	}
	if err := ep.Multicast(pkt); err != nil {
		t.Fatal(err)
	}
	if got := <-read; got != 3 {
		t.Errorf("receiver read epoch %d, want 3", got)
	}
	if len(sink.sent) != 4 || pkt.Epoch != 3 {
		t.Errorf("%d sends, epoch %d; want 4 sends stamped 3", len(sink.sent), pkt.Epoch)
	}
}
