// Package ackcast implements an ACK-based reliable multicast with sender
// flow control — the positive-acknowledgment counterpart to NAKcast in the
// ANT property matrix (ACK-based reliability + flow control).
//
// The sender multicasts data and keeps every packet until all known
// receivers have cumulatively acknowledged it; a sliding window bounds the
// packets in flight, with excess publishes queued in a backlog (flow
// control). A retransmission timer re-sends, per lagging receiver, the
// packets just above its cumulative ACK. Receivers deliver in order and
// acknowledge every arrival.
//
// ACK-based reliability scales poorly with receiver count (ACK implosion:
// every data packet triggers one ACK per receiver), which is why the paper's
// DRE workloads prefer NAK- or FEC-based protocols; ackcast exists as the
// baseline that demonstrates that trade-off in the ablation benchmarks.
package ackcast

import (
	"fmt"
	"time"

	"adamant/internal/env"
	"adamant/internal/transport"
	"adamant/internal/wire"
)

// Name is the protocol's registry/spec name.
const Name = "ackcast"

// Props advertises ackcast's transport properties.
const Props = transport.PropMulticast | transport.PropACKReliability |
	transport.PropOrdered | transport.PropFlowControl

// Defaults for Options fields left zero.
const (
	DefaultWindow = 64
	DefaultRTO    = 50 * time.Millisecond
	// DefaultHistory is the resync ring size in packets: how far behind a
	// re-admitted receiver may be and still catch up from the sender
	// rather than staying expelled (see onAck).
	DefaultHistory    = 1 << 14
	retransBurst      = 32
	ackWork           = 2 * time.Microsecond
	defaultBacklogCap = 1 << 16
	holdbackCap       = 1 << 15
	// maxStallRounds bounds consecutive no-progress RTO rounds before a
	// receiver is declared dead and dropped from the window accounting.
	maxStallRounds = 40
)

// Options are ackcast's tunables.
type Options struct {
	// Window bounds unacknowledged packets in flight (flow control).
	Window int
	// RTO is the retransmission timeout.
	RTO time.Duration
	// History is the sender-side resync ring size in packets. It bounds
	// how far back a rejoining receiver can be served.
	History int
}

func (o *Options) fillDefaults() {
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	if o.RTO <= 0 {
		o.RTO = DefaultRTO
	}
	if o.History <= 0 {
		o.History = DefaultHistory
	}
}

// Spec returns the canonical transport.Spec for the protocol.
func Spec(window int, rto time.Duration) transport.Spec {
	return transport.Spec{Name: Name, Params: transport.Params{
		"window": fmt.Sprintf("%d", window),
		"rto":    rto.String(),
	}}
}

// ParseOptions extracts Options from spec params.
func ParseOptions(p transport.Params) (Options, error) {
	var o Options
	var err error
	if o.Window, err = p.Int("window", DefaultWindow); err != nil {
		return o, err
	}
	if o.RTO, err = p.Duration("rto", DefaultRTO); err != nil {
		return o, err
	}
	if o.History, err = p.Int("history", DefaultHistory); err != nil {
		return o, err
	}
	if o.Window <= 0 || o.RTO <= 0 || o.History <= 0 {
		return o, fmt.Errorf("ackcast: non-positive option in %+v", o)
	}
	return o, nil
}

// Factory returns the registry factory for ackcast.
func Factory() *transport.Factory {
	return &transport.Factory{
		Name:  Name,
		Props: Props,
		NewSender: func(cfg transport.Config, params transport.Params) (transport.Sender, error) {
			o, err := ParseOptions(params)
			if err != nil {
				return nil, err
			}
			return NewSender(cfg, o)
		},
		NewReceiver: func(cfg transport.Config, params transport.Params) (transport.Receiver, error) {
			o, err := ParseOptions(params)
			if err != nil {
				return nil, err
			}
			return NewReceiver(cfg, o)
		},
	}
}

// Sender is the writer-side ackcast instance.
type Sender struct {
	cfg  transport.Config
	opts Options

	mux         *transport.Mux
	seq         uint64 // highest seq assigned
	sent        uint64 // highest seq actually sent
	store       map[uint64]transport.HistEntry
	hist        transport.History // resync ring
	backlog     [][]byte
	cums        map[wire.NodeID]uint64 // per-receiver cumulative ACK
	ids         []wire.NodeID          // cums keys in admission order: retransmits must not follow randomized map order, or replays diverge
	arena       transport.Arena
	rto         env.Timer
	lastMin     uint64
	stallRounds int
	closed      bool
}

var _ transport.Sender = (*Sender)(nil)

// NewSender builds an ackcast sender. cfg.Receivers must enumerate the
// receiver set so the sender knows whose ACKs gate the window.
func NewSender(cfg transport.Config, opts Options) (*Sender, error) {
	if err := cfg.ValidateSender(); err != nil {
		return nil, err
	}
	if cfg.Receivers == nil {
		return nil, fmt.Errorf("ackcast: sender config missing Receivers")
	}
	opts.fillDefaults()
	s := &Sender{
		cfg:     cfg,
		opts:    opts,
		mux:     transport.NewMux(cfg.Endpoint),
		seq:     cfg.BaseSeq,
		sent:    cfg.BaseSeq,
		lastMin: cfg.BaseSeq,
		store:   make(map[uint64]transport.HistEntry),
		hist:    transport.NewHistory(opts.History),
		cums:    make(map[wire.NodeID]uint64),
	}
	for _, id := range cfg.Receivers() {
		if id != cfg.Endpoint.Local() {
			// Receivers start acknowledged up to the base, or the window
			// arithmetic would count the previous epochs' sequence space as
			// in flight and wedge the flow control.
			s.cums[id] = cfg.BaseSeq
			s.ids = append(s.ids, id)
		}
	}
	s.mux.Handle(wire.TypeAck, s.onAck)
	return s, nil
}

// Publish implements transport.Sender. When the flow-control window is
// full the sample is queued and sent as ACKs open the window.
func (s *Sender) Publish(payload []byte) error {
	if s.closed {
		return transport.ErrClosed
	}
	if len(s.backlog) >= defaultBacklogCap {
		return fmt.Errorf("ackcast: backlog full (%d samples)", len(s.backlog))
	}
	s.seq++
	s.backlog = append(s.backlog, s.arena.Copy(payload))
	s.pump()
	return nil
}

// Seq implements transport.Sender.
func (s *Sender) Seq() uint64 { return s.seq }

// InFlight returns the number of sent-but-not-fully-acked packets.
func (s *Sender) InFlight() int { return int(s.sent - s.minCum()) }

// Backlog returns the number of samples queued behind the window.
func (s *Sender) Backlog() int { return len(s.backlog) }

// Close implements transport.Sender. Publishing stops immediately;
// retransmission service continues until every receiver has acknowledged
// the in-flight window (or the stall bound gives up on it), so closing the
// writer does not strand recoveries.
func (s *Sender) Close() error {
	s.closed = true
	return nil
}

func (s *Sender) minCum() uint64 {
	first := true
	var m uint64
	for _, c := range s.cums {
		if first || c < m {
			m, first = c, false
		}
	}
	if first {
		return s.sent // no receivers: everything is trivially acked
	}
	return m
}

// pump sends backlog samples while the window has room.
func (s *Sender) pump() {
	for len(s.backlog) > 0 && int(s.sent-s.minCum()) < s.opts.Window {
		payload := s.backlog[0]
		s.backlog = s.backlog[1:]
		s.sent++
		now := s.cfg.Env.Now()
		s.store[s.sent] = transport.HistEntry{Seq: s.sent, SentAt: now, Payload: payload}
		s.hist.Put(s.sent, now, payload)
		pkt := &wire.Packet{
			Type:    wire.TypeData,
			Src:     s.cfg.Endpoint.Local(),
			Stream:  s.cfg.Stream,
			Seq:     s.sent,
			SentAt:  now,
			Payload: payload,
		}
		if err := s.cfg.Endpoint.Multicast(pkt); err != nil {
			return
		}
	}
	s.armRTO()
}

// armRTO arms the retransmission timer if there is unacknowledged data and
// no timer is already pending. It deliberately does NOT reset a pending
// timer: re-arming on every publish would starve retransmission whenever
// the publish interval is shorter than the RTO.
func (s *Sender) armRTO() {
	if s.rto != nil {
		return
	}
	if s.sent > s.minCum() {
		s.rto = s.cfg.Env.After(s.opts.RTO, s.fireRTO)
	}
}

func (s *Sender) fireRTO() {
	s.rto = nil
	// Give up on receivers that make no progress across many RTO rounds
	// (crashed or partitioned); otherwise the timer would spin forever.
	if min := s.minCum(); min > s.lastMin {
		s.lastMin = min
		s.stallRounds = 0
	} else {
		s.stallRounds++
		if s.stallRounds > maxStallRounds {
			kept := s.ids[:0]
			for _, id := range s.ids {
				if s.cums[id] < s.sent {
					delete(s.cums, id)
				} else {
					kept = append(kept, id)
				}
			}
			s.ids = kept
			s.stallRounds = 0
			s.pump()
			return
		}
	}
	for _, id := range s.ids {
		cum := s.cums[id]
		n := 0
		for seq := cum + 1; seq <= s.sent && n < retransBurst; seq++ {
			e, ok := s.entryFor(seq)
			if !ok {
				continue
			}
			retrans := &wire.Packet{
				Type:    wire.TypeRetrans,
				Src:     s.cfg.Endpoint.Local(),
				Stream:  s.cfg.Stream,
				Seq:     seq,
				SentAt:  e.SentAt,
				Payload: e.Payload,
			}
			if err := s.cfg.Endpoint.Unicast(id, retrans); err != nil {
				break
			}
			n++
		}
	}
	s.armRTO()
}

// entryFor finds a retransmittable copy of seq: the ACK-gated store first,
// then the resync ring (for packets already acknowledged by the original
// group but owed to a re-admitted receiver).
func (s *Sender) entryFor(seq uint64) (transport.HistEntry, bool) {
	if e, ok := s.store[seq]; ok {
		return e, true
	}
	return s.hist.Get(seq)
}

// onAck keeps working after Close so the final window drains.
func (s *Sender) onAck(src wire.NodeID, pkt *wire.Packet) {
	if pkt.Stream != s.cfg.Stream {
		return
	}
	body, err := wire.DecodeAck(pkt.Payload)
	if err != nil {
		return
	}
	prev, known := s.cums[src]
	if !known {
		// Unknown source: a late-learned receiver (dynamic membership) or
		// one previously declared dead whose partition healed. Re-admit it
		// only if the resync ring still holds everything it is missing —
		// re-admitting an unservable receiver would wedge the window: its
		// cum could never advance, so the stall detector would just expel
		// it again.
		if body.Cumulative > s.sent || body.Cumulative < s.cfg.BaseSeq {
			return // bogus: acknowledges the future or another epoch's space
		}
		if s.sent-body.Cumulative > uint64(s.hist.Limit()) {
			return // too far behind the resync ring to ever catch up
		}
		s.cums[src] = body.Cumulative
		s.ids = append(s.ids, src)
		// Rebase the stall detector: the window minimum just dropped to
		// the rejoiner's cum, and its catch-up progress (not the old
		// group's) is what must now count as progress.
		s.lastMin = s.minCum()
		s.stallRounds = 0
		s.armRTO() // the rejoiner is behind: start serving backfill
		return
	}
	if body.Cumulative <= prev {
		return
	}
	s.cums[src] = body.Cumulative
	// Garbage-collect packets every receiver has.
	min := s.minCum()
	for seq := range s.store {
		if seq <= min {
			delete(s.store, seq)
		}
	}
	s.pump()
}

// Receiver is the reader-side ackcast instance: in-order delivery with a
// cumulative ACK per arrival.
type Receiver struct {
	cfg  transport.Config
	opts Options
	mux  *transport.Mux

	nextDeliver uint64
	buf         map[uint64]bufEntry
	arena       transport.Arena
	stats       transport.ReceiverStats
	closed      bool
}

type bufEntry struct {
	sentAt    time.Time
	payload   []byte
	recovered bool
}

var _ transport.Receiver = (*Receiver)(nil)

// NewReceiver builds an ackcast receiver on cfg.Endpoint.
func NewReceiver(cfg transport.Config, opts Options) (*Receiver, error) {
	if err := cfg.ValidateReceiver(); err != nil {
		return nil, err
	}
	opts.fillDefaults()
	r := &Receiver{
		cfg:         cfg,
		opts:        opts,
		mux:         transport.NewMux(cfg.Endpoint),
		nextDeliver: cfg.BaseSeq + 1,
		buf:         make(map[uint64]bufEntry),
	}
	r.mux.Handle(wire.TypeData, r.onData)
	r.mux.Handle(wire.TypeRetrans, r.onData)
	r.mux.Handle(wire.TypeHeartbeat, r.onHeartbeat)
	return r, nil
}

// Stats implements transport.Receiver.
func (r *Receiver) Stats() transport.ReceiverStats { return r.stats }

// Close implements transport.Receiver.
func (r *Receiver) Close() error {
	r.closed = true
	return nil
}

// onHeartbeat answers any sender heartbeat with a fresh cumulative ACK.
// ackcast senders emit no heartbeats of their own; this path exists for the
// hot-swap binding, which injects a synthetic end-of-stream heartbeat so a
// receiver that was partitioned across a swap re-ACKs, gets re-admitted by
// the (closed but still draining) old sender, and receives its backfill.
func (r *Receiver) onHeartbeat(src wire.NodeID, pkt *wire.Packet) {
	if r.closed || pkt.Stream != r.cfg.Stream {
		return
	}
	r.sendAck(src)
}

func (r *Receiver) onData(src wire.NodeID, pkt *wire.Packet) {
	if r.closed || pkt.Stream != r.cfg.Stream || pkt.Seq <= r.cfg.BaseSeq {
		return
	}
	if pkt.Seq < r.nextDeliver {
		r.stats.Duplicates++
		r.sendAck(src) // re-ACK: the sender may have missed an earlier ACK
		return
	}
	if _, dup := r.buf[pkt.Seq]; dup {
		r.stats.Duplicates++
		return
	}
	if len(r.buf) >= holdbackCap {
		r.stats.OutOfWindow++
		return
	}
	r.buf[pkt.Seq] = bufEntry{
		sentAt:    pkt.SentAt,
		payload:   r.arena.Copy(pkt.Payload),
		recovered: pkt.Type == wire.TypeRetrans,
	}
	r.stats.NoteBuffered(len(r.buf))
	for {
		e, ok := r.buf[r.nextDeliver]
		if !ok {
			break
		}
		delete(r.buf, r.nextDeliver)
		r.stats.Delivered++
		if e.recovered {
			r.stats.Recovered++
		}
		r.cfg.Deliver(transport.Delivery{
			Stream:      r.cfg.Stream,
			Seq:         r.nextDeliver,
			Payload:     e.payload,
			SentAt:      e.sentAt,
			DeliveredAt: r.cfg.Env.Now(),
			Recovered:   e.recovered,
		})
		r.nextDeliver++
	}
	r.sendAck(src)
}

func (r *Receiver) sendAck(to wire.NodeID) {
	r.cfg.Endpoint.Work(ackWork)
	body, err := (&wire.AckBody{Cumulative: r.nextDeliver - 1}).Encode(nil)
	if err != nil {
		return
	}
	pkt := &wire.Packet{
		Type:    wire.TypeAck,
		Src:     r.cfg.Endpoint.Local(),
		Stream:  r.cfg.Stream,
		SentAt:  r.cfg.Env.Now(),
		Payload: body,
	}
	// ACK loss is recovered by the RTO path; nothing to do on error.
	_ = r.cfg.Endpoint.Unicast(to, pkt)
}
