package nakcast_test

import (
	"fmt"
	"testing"
	"time"

	"adamant/internal/env"
	"adamant/internal/sim"
	"adamant/internal/transport"
	"adamant/internal/transport/nakcast"
	"adamant/internal/transport/transporttest"
	"adamant/internal/wire"
)

type harness struct {
	k        *sim.Kernel
	fab      *transporttest.Fabric
	sender   *nakcast.Sender
	recvs    []*nakcast.Receiver
	delivery [][]transport.Delivery
}

// newHarness builds one sender (node 0) and n receivers (nodes 1..n) over a
// 1ms-delay fabric.
func newHarness(t *testing.T, n int, opts nakcast.Options) *harness {
	t.Helper()
	h := &harness{k: sim.New(1)}
	e := env.NewSim(h.k)
	h.fab = transporttest.New(e, time.Millisecond)
	ids := []wire.NodeID{0}
	for i := 1; i <= n; i++ {
		ids = append(ids, wire.NodeID(i))
	}
	var err error
	h.sender, err = nakcast.NewSender(transport.Config{
		Env: e, Endpoint: h.fab.Endpoint(0), Stream: 1,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	h.delivery = make([][]transport.Delivery, n)
	for i := 0; i < n; i++ {
		i := i
		r, err := nakcast.NewReceiver(transport.Config{
			Env:      e,
			Endpoint: h.fab.Endpoint(wire.NodeID(i + 1)),
			Stream:   1,
			SenderID: 0,
			Deliver:  func(d transport.Delivery) { h.delivery[i] = append(h.delivery[i], d) },
		}, opts)
		if err != nil {
			t.Fatal(err)
		}
		h.recvs = append(h.recvs, r)
	}
	return h
}

func (h *harness) publishN(t *testing.T, n int, gap time.Duration) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := h.sender.Publish([]byte(fmt.Sprintf("sample-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := h.k.RunFor(gap); err != nil {
			t.Fatal(err)
		}
	}
}

func (h *harness) finish(t *testing.T) {
	t.Helper()
	if err := h.sender.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func seqs(ds []transport.Delivery) []uint64 {
	out := make([]uint64, len(ds))
	for i, d := range ds {
		out[i] = d.Seq
	}
	return out
}

func TestLosslessInOrderDelivery(t *testing.T) {
	h := newHarness(t, 2, nakcast.Options{Timeout: time.Millisecond})
	h.publishN(t, 20, 5*time.Millisecond)
	h.finish(t)
	for i, ds := range h.delivery {
		if len(ds) != 20 {
			t.Fatalf("receiver %d delivered %d, want 20", i, len(ds))
		}
		for j, d := range ds {
			if d.Seq != uint64(j+1) {
				t.Fatalf("receiver %d out of order: %v", i, seqs(ds))
			}
			if d.Recovered {
				t.Errorf("lossless run marked seq %d recovered", d.Seq)
			}
			if lat := d.Latency(); lat < time.Millisecond || lat > 2*time.Millisecond {
				t.Errorf("seq %d latency %v, want ~1ms", d.Seq, lat)
			}
		}
	}
}

func TestSingleLossRecovered(t *testing.T) {
	h := newHarness(t, 1, nakcast.Options{Timeout: 5 * time.Millisecond})
	dropped := false
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		if pkt.Type == wire.TypeData && pkt.Seq == 3 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	h.publishN(t, 10, 10*time.Millisecond)
	h.finish(t)
	ds := h.delivery[0]
	if len(ds) != 10 {
		t.Fatalf("delivered %d, want 10: %v", len(ds), seqs(ds))
	}
	for j, d := range ds {
		if d.Seq != uint64(j+1) {
			t.Fatalf("out of order: %v", seqs(ds))
		}
	}
	if !ds[2].Recovered {
		t.Error("seq 3 should be marked recovered")
	}
	// Recovery path: detected when seq 4 arrives (~10ms after seq 3 was
	// sent), + 5ms NAK timeout + ~2ms round trip. The recovered latency
	// must reflect the original send time.
	if lat := ds[2].Latency(); lat < 15*time.Millisecond {
		t.Errorf("recovered latency %v, want >= detection+timeout (~15ms)", lat)
	}
	st := h.recvs[0].Stats()
	if st.NaksSent == 0 {
		t.Error("no NAKs sent")
	}
	if st.Recovered != 1 {
		t.Errorf("Recovered = %d, want 1", st.Recovered)
	}
}

func TestHeadOfLineBlocking(t *testing.T) {
	h := newHarness(t, 1, nakcast.Options{Timeout: 20 * time.Millisecond})
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && pkt.Seq == 2
	}
	// Publish 1..4 quickly: 3 and 4 arrive before 2 recovers and must be
	// held back, then released in a burst with inflated latency.
	h.publishN(t, 4, 2*time.Millisecond)
	h.finish(t)
	ds := h.delivery[0]
	if len(ds) != 4 {
		t.Fatalf("delivered %d, want 4", len(ds))
	}
	if got := seqs(ds); got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 4 {
		t.Fatalf("order = %v", got)
	}
	// seq 3's latency must include head-of-line blocking behind seq 2.
	if lat3 := ds[2].Latency(); lat3 < 15*time.Millisecond {
		t.Errorf("seq 3 latency %v; expected HOL blocking behind seq 2 (>= ~20ms)", lat3)
	}
	// And 2,3,4 are delivered at the same instant (the recovery drain).
	if !ds[1].DeliveredAt.Equal(ds[2].DeliveredAt) || !ds[2].DeliveredAt.Equal(ds[3].DeliveredAt) {
		t.Error("HOL drain should deliver blocked samples at the same instant")
	}
}

func TestRetransLossTriggersBackoffRetry(t *testing.T) {
	h := newHarness(t, 1, nakcast.Options{Timeout: 2 * time.Millisecond})
	drops := 0
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		if pkt.Type == wire.TypeData && pkt.Seq == 2 {
			return true
		}
		if pkt.Type == wire.TypeRetrans && pkt.Seq == 2 && drops < 2 {
			drops++
			return true
		}
		return false
	}
	h.publishN(t, 5, 5*time.Millisecond)
	h.finish(t)
	ds := h.delivery[0]
	if len(ds) != 5 {
		t.Fatalf("delivered %d, want 5: %v", len(ds), seqs(ds))
	}
	st := h.recvs[0].Stats()
	if st.NaksSent < 3 {
		t.Errorf("NaksSent = %d, want >= 3 (two retrans drops)", st.NaksSent)
	}
	if !ds[1].Recovered {
		t.Error("seq 2 should be recovered")
	}
}

func TestAbandonAfterMaxNaks(t *testing.T) {
	h := newHarness(t, 1, nakcast.Options{Timeout: time.Millisecond, MaxNaks: 3})
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		// seq 2 is permanently unrecoverable.
		return (pkt.Type == wire.TypeData || pkt.Type == wire.TypeRetrans) && pkt.Seq == 2
	}
	h.publishN(t, 5, 3*time.Millisecond)
	h.finish(t)
	ds := h.delivery[0]
	if len(ds) != 4 {
		t.Fatalf("delivered %d, want 4 (seq 2 abandoned): %v", len(ds), seqs(ds))
	}
	got := seqs(ds)
	want := []uint64{1, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	st := h.recvs[0].Stats()
	if st.Abandoned != 1 {
		t.Errorf("Abandoned = %d, want 1", st.Abandoned)
	}
	if st.NaksSent != 3 {
		t.Errorf("NaksSent = %d, want exactly MaxNaks=3", st.NaksSent)
	}
}

func TestTailLossRecoveredViaHeartbeat(t *testing.T) {
	h := newHarness(t, 1, nakcast.Options{Timeout: time.Millisecond, HBInterval: 20 * time.Millisecond})
	dropped := false
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		if pkt.Type == wire.TypeData && pkt.Seq == 5 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	// seq 5 is the final packet: no later data to reveal the gap, only
	// heartbeats can.
	h.publishN(t, 5, 2*time.Millisecond)
	h.finish(t)
	ds := h.delivery[0]
	if len(ds) != 5 {
		t.Fatalf("delivered %d, want 5 (tail loss must be heartbeat-recovered)", len(ds))
	}
	if !ds[4].Recovered {
		t.Error("tail packet should be marked recovered")
	}
}

func TestEOSHeartbeatSpeedsTailRecovery(t *testing.T) {
	// With a huge HB interval, the EOS heartbeat sent by Close is the only
	// tail-gap signal.
	h := newHarness(t, 1, nakcast.Options{Timeout: time.Millisecond, HBInterval: time.Hour})
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && pkt.Seq == 3 && pkt.Src == 0 && to == 1 &&
			pkt.Type != wire.TypeRetrans
	}
	h.publishN(t, 3, 2*time.Millisecond)
	h.finish(t)
	if got := len(h.delivery[0]); got != 3 {
		t.Fatalf("delivered %d, want 3", got)
	}
}

func TestDuplicateSuppression(t *testing.T) {
	h := newHarness(t, 1, nakcast.Options{Timeout: time.Millisecond})
	// Duplicate every data packet.
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool { return false }
	ep := h.fab.Endpoint(0)
	for i := 0; i < 5; i++ {
		if err := h.sender.Publish([]byte("x")); err != nil {
			t.Fatal(err)
		}
		// Replay the same seq directly.
		dup := &wire.Packet{Type: wire.TypeData, Src: 0, Stream: 1,
			Seq: h.sender.Seq(), SentAt: h.k.Now(), Payload: []byte("x")}
		if err := ep.Multicast(dup); err != nil {
			t.Fatal(err)
		}
		if err := h.k.RunFor(5 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	h.finish(t)
	if got := len(h.delivery[0]); got != 5 {
		t.Errorf("delivered %d, want 5", got)
	}
	if st := h.recvs[0].Stats(); st.Duplicates != 5 {
		t.Errorf("Duplicates = %d, want 5", st.Duplicates)
	}
}

func TestUnorderedMode(t *testing.T) {
	h := newHarness(t, 1, nakcast.Options{Timeout: 50 * time.Millisecond, Unordered: true})
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && pkt.Seq == 2
	}
	h.publishN(t, 4, 2*time.Millisecond)
	h.finish(t)
	ds := h.delivery[0]
	if len(ds) != 4 {
		t.Fatalf("delivered %d, want 4", len(ds))
	}
	// 3 and 4 must NOT wait for 2: they are delivered before it.
	pos := map[uint64]int{}
	for i, d := range ds {
		pos[d.Seq] = i
	}
	if pos[3] > pos[2] || pos[4] > pos[2] {
		t.Errorf("unordered mode still blocked: order %v", seqs(ds))
	}
	if lat := ds[pos[3]].Latency(); lat > 5*time.Millisecond {
		t.Errorf("seq 3 latency %v in unordered mode, want ~1ms", lat)
	}
}

func TestSenderHistoryEviction(t *testing.T) {
	h := newHarness(t, 1, nakcast.Options{Timeout: 40 * time.Millisecond, History: 4, MaxNaks: 2})
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && pkt.Seq == 1 && to == 1
	}
	// By the time the NAK for seq 1 fires, 8 more packets have evicted it.
	h.publishN(t, 9, 5*time.Millisecond)
	h.finish(t)
	ds := h.delivery[0]
	if len(ds) != 8 {
		t.Fatalf("delivered %d, want 8 (seq 1 unrecoverable)", len(ds))
	}
	if st := h.recvs[0].Stats(); st.Abandoned != 1 {
		t.Errorf("Abandoned = %d, want 1", st.Abandoned)
	}
}

func TestPublishAfterClose(t *testing.T) {
	h := newHarness(t, 1, nakcast.Options{})
	if err := h.sender.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.sender.Publish([]byte("x")); err == nil {
		t.Error("Publish after Close should error")
	}
	if err := h.sender.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
	if err := h.recvs[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.recvs[0].Close(); err != nil {
		t.Errorf("double receiver Close: %v", err)
	}
}

func TestReceiverCloseStopsNaks(t *testing.T) {
	h := newHarness(t, 1, nakcast.Options{Timeout: 5 * time.Millisecond})
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && pkt.Seq == 2
	}
	h.publishN(t, 3, 2*time.Millisecond)
	if err := h.recvs[0].Close(); err != nil {
		t.Fatal(err)
	}
	before := h.recvs[0].Stats().NaksSent
	if err := h.k.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if after := h.recvs[0].Stats().NaksSent; after != before {
		t.Errorf("NAKs kept flowing after Close: %d -> %d", before, after)
	}
}

func TestSpecAndParseOptions(t *testing.T) {
	spec := nakcast.Spec(time.Millisecond)
	if spec.String() != "nakcast(timeout=1ms)" {
		t.Errorf("Spec = %q", spec.String())
	}
	o, err := nakcast.ParseOptions(spec.Params)
	if err != nil || o.Timeout != time.Millisecond {
		t.Errorf("ParseOptions: %+v, %v", o, err)
	}
	if _, err := nakcast.ParseOptions(transport.Params{"timeout": "bogus"}); err == nil {
		t.Error("bad timeout should error")
	}
	if _, err := nakcast.ParseOptions(transport.Params{"timeout": "-1ms"}); err == nil {
		t.Error("negative timeout should error")
	}
	if _, err := nakcast.ParseOptions(transport.Params{"maxnaks": "x"}); err == nil {
		t.Error("bad maxnaks should error")
	}
	if _, err := nakcast.ParseOptions(transport.Params{"unordered": "1"}); err != nil {
		t.Error("unordered=1 should parse")
	}
}

func TestFactoryBuildsInstances(t *testing.T) {
	f := nakcast.Factory()
	if f.Name != nakcast.Name {
		t.Errorf("factory name %q", f.Name)
	}
	if !transport.Properties(f.Props).Has(transport.PropNAKReliability) {
		t.Error("factory props missing nak-reliability")
	}
	k := sim.New(1)
	e := env.NewSim(k)
	fab := transporttest.New(e, time.Millisecond)
	cfg := transport.Config{Env: e, Endpoint: fab.Endpoint(0), Stream: 1}
	s, err := f.NewSender(cfg, transport.Params{"timeout": "1ms"})
	if err != nil || s == nil {
		t.Fatalf("NewSender: %v", err)
	}
	cfg2 := transport.Config{Env: e, Endpoint: fab.Endpoint(1), Stream: 1,
		Deliver: func(transport.Delivery) {}}
	r, err := f.NewReceiver(cfg2, transport.Params{"timeout": "1ms"})
	if err != nil || r == nil {
		t.Fatalf("NewReceiver: %v", err)
	}
	if _, err := f.NewSender(cfg, transport.Params{"timeout": "zzz"}); err == nil {
		t.Error("bad params should fail sender construction")
	}
}

func TestManyLossesAllRecovered(t *testing.T) {
	// Deterministically drop every 7th data packet to one of three
	// receivers; everything must still arrive, in order.
	h := newHarness(t, 3, nakcast.Options{Timeout: 2 * time.Millisecond})
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && to == 2 && pkt.Seq%7 == 0
	}
	h.publishN(t, 100, 3*time.Millisecond)
	h.finish(t)
	for i, ds := range h.delivery {
		if len(ds) != 100 {
			t.Errorf("receiver %d delivered %d, want 100", i, len(ds))
		}
		for j, d := range ds {
			if d.Seq != uint64(j+1) {
				t.Fatalf("receiver %d out of order at %d", i, j)
			}
		}
	}
	if st := h.recvs[1].Stats(); st.Recovered != 14 {
		t.Errorf("receiver 1 Recovered = %d, want 14", st.Recovered)
	}
}

// nakProbe is a bare node that NAKs the sender directly and records the
// retransmissions it gets back, by sequence number.
type nakProbe struct {
	ep      *transporttest.Endpoint
	retrans map[uint64]*wire.Packet
}

func newNakProbe(h *harness, id wire.NodeID) *nakProbe {
	p := &nakProbe{ep: h.fab.Endpoint(id), retrans: make(map[uint64]*wire.Packet)}
	p.ep.SetHandler(func(_ wire.NodeID, pkt *wire.Packet) {
		if pkt.Type == wire.TypeRetrans {
			p.retrans[pkt.Seq] = pkt
		}
	})
	return p
}

func (p *nakProbe) nak(t *testing.T, ranges ...wire.SeqRange) {
	t.Helper()
	body, err := (&wire.NakBody{Ranges: ranges}).Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ep.Unicast(0, &wire.Packet{Type: wire.TypeNak, Src: p.ep.Local(), Stream: 1, Payload: body}); err != nil {
		t.Fatal(err)
	}
}

// TestSenderHistoryRetention: with History=H, after 3H/2 publishes a NAK
// for seq is served, with the published payload, if and only if
// seq > published-H — the retention of a fully allocated H-slot ring.
func TestSenderHistoryRetention(t *testing.T) {
	for _, hist := range []int{4, 64, 100, 128, 1000} {
		h := newHarness(t, 0, nakcast.Options{History: hist})
		probe := newNakProbe(h, 9)
		published := 3 * hist / 2
		h.publishN(t, published, 0)
		for seq := uint64(1); seq <= uint64(published); seq++ {
			probe.nak(t, wire.SeqRange{From: seq, To: seq})
			if err := h.k.RunFor(5 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			pkt, served := probe.retrans[seq]
			if want := seq > uint64(published-hist); served != want {
				t.Fatalf("History=%d, %d published: NAK for %d served=%v, want %v", hist, published, seq, served, want)
			}
			if served && string(pkt.Payload) != fmt.Sprintf("sample-%d", seq-1) {
				t.Fatalf("History=%d: seq %d retransmitted %q", hist, seq, pkt.Payload)
			}
		}
	}
}

// TestNakDuringHistoryGrowth: a NAK in flight while the sender's ring
// grows from 64 to 128 slots is answered with the right payloads, and so
// is one sent after the growth.
func TestNakDuringHistoryGrowth(t *testing.T) {
	h := newHarness(t, 0, nakcast.Options{})
	probe := newNakProbe(h, 9)
	h.publishN(t, 64, 0)
	probe.nak(t, wire.SeqRange{From: 1, To: 40}, wire.SeqRange{From: 50, To: 64})
	// The NAK takes 1ms to arrive; publishing the 65th sample first makes
	// the ring grow before it is served.
	for i := 64; i < 70; i++ {
		if err := h.sender.Publish([]byte(fmt.Sprintf("sample-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.k.RunFor(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(probe.retrans) != 55 {
		t.Fatalf("%d retransmissions for a 55-seq NAK", len(probe.retrans))
	}
	probe.nak(t, wire.SeqRange{From: 41, To: 70})
	if err := h.k.RunFor(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(probe.retrans) != 70 {
		t.Fatalf("%d of 70 sequences retransmitted", len(probe.retrans))
	}
	for seq, pkt := range probe.retrans {
		if want := fmt.Sprintf("sample-%d", seq-1); string(pkt.Payload) != want {
			t.Errorf("seq %d retransmitted %q, want %q", seq, pkt.Payload, want)
		}
	}
}
