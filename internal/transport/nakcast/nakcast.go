// Package nakcast implements the ANT framework's NAKcast protocol: a
// NAK-based reliable multicast. The sender multicasts data packets and
// keeps a bounded retransmission history; receivers detect sequence gaps
// (from later data packets or from sender heartbeats), wait a tunable NAK
// timeout, then send a NAK listing the missing ranges; the sender answers
// with unicast retransmissions that preserve the original send timestamps.
//
// The NAK timeout is the protocol's headline tunable — the paper evaluates
// 50 ms, 25 ms, 10 ms, and 1 ms. Smaller timeouts recover faster at the
// cost of more NAK traffic under reordering.
//
// Delivery is in-order by default (the reliability the DDS RELIABLE QoS
// expects), which is where NAKcast's latency profile comes from: a lost
// packet head-of-line blocks its successors until recovery. Unrecoverable
// packets (sender history evicted, or the NAK retry budget exhausted) are
// abandoned so delivery always makes progress.
package nakcast

import (
	"fmt"
	"time"

	"adamant/internal/env"
	"adamant/internal/transport"
	"adamant/internal/wire"
)

// Name is the protocol's registry/spec name.
const Name = "nakcast"

// Props advertises NAKcast's transport properties.
const Props = transport.PropMulticast | transport.PropNAKReliability | transport.PropOrdered

// Defaults for Options fields left zero.
const (
	DefaultTimeout    = 10 * time.Millisecond
	DefaultMaxNaks    = 8
	DefaultHistory    = 1 << 14
	DefaultHBInterval = 100 * time.Millisecond
	// DefaultProcCost models the reference-machine CPU time the receiver
	// spends per data packet on sequencing and holdback bookkeeping (the
	// ANT framework data path without Ricochet's XOR work).
	DefaultProcCost    = 50 * time.Microsecond
	retransWorkPerPkt  = 40 * time.Microsecond
	nakBuildWork       = 30 * time.Microsecond
	defaultHoldbackCap = 1 << 15

	// retransBurst is how many retransmissions a NAK is served
	// synchronously; anything beyond it is queued and paced. Small NAKs
	// (ordinary loss recovery) behave exactly as before; only big
	// backfills after a long partition take the paced path.
	retransBurst = 64
	// retransPace is the interval between paced retransmission bursts.
	// Pacing turns the post-heal backfill from one egress-queue-flooding
	// burst into a bounded trickle the NAK backoff can ride on.
	retransPace = 2 * time.Millisecond
	// maxRetransQueue bounds the sender's pending retransmission queue;
	// excess requests are dropped and recovered by the receiver's next
	// NAK retry.
	maxRetransQueue = 1 << 14
	// maxRetransScan bounds how many history slots one NAK may probe, so
	// a malformed or hostile NAK range (e.g. 1..2^60) cannot stall the
	// sender scanning sequence numbers it never published.
	maxRetransScan = 1 << 16
)

// Options are NAKcast's tunables.
type Options struct {
	// Timeout is the NAK timeout: how long a receiver waits after
	// detecting a gap before NAKing the sender. Retries back off
	// exponentially from this base.
	Timeout time.Duration
	// MaxNaks bounds NAK retries per missing packet before the receiver
	// abandons it.
	MaxNaks int
	// History is the sender-side retransmission buffer size in packets.
	History int
	// HBInterval is the sender heartbeat period used for tail-gap
	// detection.
	HBInterval time.Duration
	// Unordered disables in-order delivery (samples are handed up on
	// arrival; recovery still runs). Used for ablation experiments.
	Unordered bool
	// ProcCost is the per-data-packet receiver processing cost at
	// reference-machine speed; deliveries are delayed by the scaled cost.
	ProcCost time.Duration
}

func (o *Options) fillDefaults() {
	if o.Timeout <= 0 {
		o.Timeout = DefaultTimeout
	}
	if o.MaxNaks <= 0 {
		o.MaxNaks = DefaultMaxNaks
	}
	if o.History <= 0 {
		o.History = DefaultHistory
	}
	if o.HBInterval <= 0 {
		o.HBInterval = DefaultHBInterval
	}
	if o.ProcCost == 0 {
		o.ProcCost = DefaultProcCost
	}
}

// Spec returns the canonical transport.Spec for a NAK timeout, e.g.
// Spec(time.Millisecond) == "nakcast(timeout=1ms)".
func Spec(timeout time.Duration) transport.Spec {
	return transport.Spec{Name: Name, Params: transport.Params{"timeout": timeout.String()}}
}

// ParseOptions extracts Options from spec params.
func ParseOptions(p transport.Params) (Options, error) {
	var o Options
	var err error
	if o.Timeout, err = p.Duration("timeout", DefaultTimeout); err != nil {
		return o, err
	}
	if o.MaxNaks, err = p.Int("maxnaks", DefaultMaxNaks); err != nil {
		return o, err
	}
	if o.History, err = p.Int("history", DefaultHistory); err != nil {
		return o, err
	}
	if o.HBInterval, err = p.Duration("hb", DefaultHBInterval); err != nil {
		return o, err
	}
	if o.ProcCost, err = p.Duration("proc", DefaultProcCost); err != nil {
		return o, err
	}
	unord, err := p.Int("unordered", 0)
	if err != nil {
		return o, err
	}
	o.Unordered = unord != 0
	if o.Timeout <= 0 || o.MaxNaks <= 0 || o.History <= 0 || o.HBInterval <= 0 {
		return o, fmt.Errorf("nakcast: non-positive option in %+v", o)
	}
	return o, nil
}

// Factory returns the registry factory for NAKcast.
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

// Sender is the writer-side NAKcast instance.
type Sender struct {
	cfg    transport.Config
	opts   Options
	mux    *transport.Mux
	seq    uint64
	hist   transport.History
	arena  transport.Arena
	hbTmr  env.Timer
	closed bool

	// Paced retransmission state: backfill requests beyond the synchronous
	// burst budget queue here (deduplicated per destination+seq) and drain
	// retransBurst at a time every retransPace.
	rtq     []retransReq
	rtqSet  map[retransReq]bool
	rtTimer env.Timer
}

// retransReq identifies one queued retransmission.
type retransReq struct {
	dst wire.NodeID
	seq uint64
}

var _ transport.Sender = (*Sender)(nil)

// NewSender builds a NAKcast sender on cfg.Endpoint.
func NewSender(cfg transport.Config, opts Options) (*Sender, error) {
	if err := cfg.ValidateSender(); err != nil {
		return nil, err
	}
	opts.fillDefaults()
	s := &Sender{
		cfg:    cfg,
		opts:   opts,
		mux:    transport.NewMux(cfg.Endpoint),
		seq:    cfg.BaseSeq,
		hist:   transport.NewHistory(opts.History),
		rtqSet: make(map[retransReq]bool),
	}
	s.mux.Handle(wire.TypeNak, s.onNak)
	s.hbTmr = cfg.Env.After(opts.HBInterval, s.heartbeat)
	return s, nil
}

// Publish implements transport.Sender.
func (s *Sender) Publish(payload []byte) error {
	if s.closed {
		return transport.ErrClosed
	}
	s.seq++
	now := s.cfg.Env.Now()
	cp := s.arena.Copy(payload)
	s.hist.Put(s.seq, now, cp)
	pkt := &wire.Packet{
		Type:    wire.TypeData,
		Src:     s.cfg.Endpoint.Local(),
		Stream:  s.cfg.Stream,
		Seq:     s.seq,
		SentAt:  now,
		Payload: cp,
	}
	return s.cfg.Endpoint.Multicast(pkt)
}

// Seq implements transport.Sender.
func (s *Sender) Seq() uint64 { return s.seq }

// Close implements transport.Sender. It multicasts a final EOS heartbeat so
// receivers can finish tail-loss recovery, then stops the heartbeat timer.
func (s *Sender) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.hbTmr != nil {
		s.hbTmr.Stop()
	}
	s.sendHeartbeat(wire.FlagEOS)
	return nil
}

func (s *Sender) heartbeat() {
	if s.closed {
		return
	}
	s.sendHeartbeat(0)
	s.hbTmr = s.cfg.Env.After(s.opts.HBInterval, s.heartbeat)
}

func (s *Sender) sendHeartbeat(flags uint8) {
	body, err := (&wire.HeartbeatBody{HighSeq: s.seq}).Encode(nil)
	if err != nil {
		return
	}
	pkt := &wire.Packet{
		Type:    wire.TypeHeartbeat,
		Flags:   flags,
		Src:     s.cfg.Endpoint.Local(),
		Stream:  s.cfg.Stream,
		Seq:     s.seq,
		SentAt:  s.cfg.Env.Now(),
		Payload: body,
	}
	// Heartbeat delivery failures surface as slower tail recovery, not
	// correctness loss; nothing useful to do with an error here.
	_ = s.cfg.Endpoint.Multicast(pkt)
}

// onNak serves retransmissions. It deliberately keeps working after Close:
// Close ends publishing and heartbeats, but receivers may still be
// recovering tail losses announced by the EOS heartbeat. The first
// retransBurst packets go out synchronously (ordinary loss recovery);
// larger backfills — a healed partition NAKing hundreds of sequences at
// once — queue and drain at retransPace so the sender cannot flood its own
// egress queue into drop-tail losses the receiver must re-NAK.
func (s *Sender) onNak(src wire.NodeID, pkt *wire.Packet) {
	if pkt.Stream != s.cfg.Stream {
		return
	}
	body, err := wire.DecodeNak(pkt.Payload)
	if err != nil {
		return
	}
	sent, scanned := 0, 0
	for _, r := range body.Ranges {
		hi := r.To
		if hi > s.seq {
			hi = s.seq // never scan past what was published
		}
		for seq := r.From; seq <= hi && scanned < maxRetransScan; seq++ {
			scanned++
			e, ok := s.hist.Get(seq)
			if !ok {
				continue // evicted from history or bogus
			}
			if sent < retransBurst {
				if !s.retransmit(src, e) {
					return
				}
				sent++
			} else {
				s.enqueueRetrans(src, seq)
			}
		}
	}
}

// retransmit unicasts one history entry to dst, charging the CPU cost. It
// reports false on endpoint errors (unknown destination).
func (s *Sender) retransmit(dst wire.NodeID, e transport.HistEntry) bool {
	s.cfg.Endpoint.Work(retransWorkPerPkt)
	retrans := &wire.Packet{
		Type:    wire.TypeRetrans,
		Src:     s.cfg.Endpoint.Local(),
		Stream:  s.cfg.Stream,
		Seq:     e.Seq,
		SentAt:  e.SentAt, // original publish time: latency stays end-to-end
		Payload: e.Payload,
	}
	return s.cfg.Endpoint.Unicast(dst, retrans) == nil
}

// enqueueRetrans adds a paced retransmission, deduplicating repeat
// requests (NAK retries for a seq already queued) and dropping beyond the
// queue bound — the receiver's next backoff retry re-requests anything
// dropped here.
func (s *Sender) enqueueRetrans(dst wire.NodeID, seq uint64) {
	key := retransReq{dst: dst, seq: seq}
	if s.rtqSet[key] || len(s.rtq) >= maxRetransQueue {
		return
	}
	s.rtqSet[key] = true
	s.rtq = append(s.rtq, key)
	if s.rtTimer == nil {
		s.rtTimer = s.cfg.Env.After(retransPace, s.fireRetrans)
	}
}

// fireRetrans drains one pacing burst from the retransmission queue.
func (s *Sender) fireRetrans() {
	s.rtTimer = nil
	n := 0
	for len(s.rtq) > 0 && n < retransBurst {
		key := s.rtq[0]
		s.rtq = s.rtq[1:]
		delete(s.rtqSet, key)
		e, ok := s.hist.Get(key.seq)
		if !ok {
			continue // evicted while queued
		}
		s.retransmit(key.dst, e)
		n++
	}
	if len(s.rtq) > 0 {
		s.rtTimer = s.cfg.Env.After(retransPace, s.fireRetrans)
	}
}

// Receiver is the reader-side NAKcast instance.
type Receiver struct {
	cfg  transport.Config
	opts Options
	mux  *transport.Mux

	sender      wire.NodeID // NAK target; tracked from data/heartbeat sources
	nextDeliver uint64      // next seq to deliver in order (1-based)
	maxSeen     uint64
	buf         map[uint64]bufEntry
	missing     map[uint64]*missState
	abandoned   map[uint64]bool
	seen        map[uint64]bool // unordered mode: delivered seqs
	arena       transport.Arena
	eos         bool
	eosHigh     uint64

	nakTimer env.Timer
	emitq    transport.EmitQueue
	stats    transport.ReceiverStats
	closed   bool
}

type bufEntry struct {
	sentAt    time.Time
	payload   []byte
	recovered bool
}

type missState struct {
	naks int
	due  time.Time
}

var _ transport.Receiver = (*Receiver)(nil)

// NewReceiver builds a NAKcast receiver on cfg.Endpoint.
func NewReceiver(cfg transport.Config, opts Options) (*Receiver, error) {
	if err := cfg.ValidateReceiver(); err != nil {
		return nil, err
	}
	opts.fillDefaults()
	r := &Receiver{
		cfg:         cfg,
		opts:        opts,
		mux:         transport.NewMux(cfg.Endpoint),
		sender:      cfg.SenderID,
		nextDeliver: cfg.BaseSeq + 1,
		maxSeen:     cfg.BaseSeq,
		buf:         make(map[uint64]bufEntry),
		missing:     make(map[uint64]*missState),
		abandoned:   make(map[uint64]bool),
		seen:        make(map[uint64]bool),
	}
	r.emitq = transport.NewEmitQueue(cfg.Env, cfg.Deliver, &r.closed)
	r.mux.Handle(wire.TypeData, r.onData)
	r.mux.Handle(wire.TypeRetrans, r.onData)
	r.mux.Handle(wire.TypeHeartbeat, r.onHeartbeat)
	return r, nil
}

// Stats implements transport.Receiver.
func (r *Receiver) Stats() transport.ReceiverStats { return r.stats }

// Close implements transport.Receiver.
func (r *Receiver) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.nakTimer != nil {
		r.nakTimer.Stop()
	}
	return nil
}

func (r *Receiver) onData(src wire.NodeID, pkt *wire.Packet) {
	if r.closed || pkt.Stream != r.cfg.Stream {
		return
	}
	// Track the writer's actual node so NAKs reach it even when the
	// configured SenderID is stale or a different participant writes the
	// topic.
	r.sender = src
	seq := pkt.Seq
	if seq <= r.cfg.BaseSeq {
		return // below this instance's sequence space (covers bogus seq 0)
	}
	if r.isDuplicate(seq) {
		r.stats.Duplicates++
		return
	}
	if len(r.buf) >= defaultHoldbackCap {
		r.stats.OutOfWindow++
		return
	}
	recovered := pkt.Type == wire.TypeRetrans
	r.buf[seq] = bufEntry{
		sentAt:    pkt.SentAt,
		payload:   r.arena.Copy(pkt.Payload),
		recovered: recovered,
	}
	delete(r.missing, seq)
	r.noteHigh(seq, true)
	r.stats.NoteBuffered(len(r.buf) + len(r.missing) + len(r.abandoned))
	r.drain()
}

func (r *Receiver) onHeartbeat(src wire.NodeID, pkt *wire.Packet) {
	if r.closed || pkt.Stream != r.cfg.Stream {
		return
	}
	hb, err := wire.DecodeHeartbeat(pkt.Payload)
	if err != nil {
		return
	}
	r.sender = src
	if pkt.Flags&wire.FlagEOS != 0 {
		r.eos = true
		r.eosHigh = hb.HighSeq
	}
	r.noteHigh(hb.HighSeq, false)
	r.drain()
}

// isDuplicate reports whether seq was already buffered, delivered, or
// abandoned.
func (r *Receiver) isDuplicate(seq uint64) bool {
	if r.abandoned[seq] {
		return true
	}
	if _, buffered := r.buf[seq]; buffered {
		return true
	}
	if r.opts.Unordered {
		return r.seen[seq]
	}
	return seq < r.nextDeliver
}

// noteHigh records a new high watermark, marking any newly discovered gap
// sequences missing and arming the NAK timer. receivedHigh distinguishes a
// data arrival (seq itself is present) from a heartbeat announcement (seq
// itself may be missing too).
func (r *Receiver) noteHigh(seq uint64, receivedHigh bool) {
	if seq <= r.maxSeen {
		return
	}
	now := r.cfg.Env.Now()
	due := now.Add(r.opts.Timeout)
	hi := seq
	if receivedHigh {
		hi = seq - 1
	}
	for m := r.maxSeen + 1; m <= hi; m++ {
		if r.isDuplicate(m) {
			continue
		}
		r.missing[m] = &missState{due: due}
	}
	r.maxSeen = seq
	r.stats.NoteBuffered(len(r.buf) + len(r.missing) + len(r.abandoned))
	r.armNakTimer()
}

// armNakTimer (re)schedules the single NAK timer for the earliest due
// missing packet.
func (r *Receiver) armNakTimer() {
	if r.nakTimer != nil {
		r.nakTimer.Stop()
		r.nakTimer = nil
	}
	if len(r.missing) == 0 {
		return
	}
	var earliest time.Time
	for _, st := range r.missing {
		if earliest.IsZero() || st.due.Before(earliest) {
			earliest = st.due
		}
	}
	d := earliest.Sub(r.cfg.Env.Now())
	if d < 0 {
		d = 0
	}
	r.nakTimer = r.cfg.Env.After(d, r.fireNaks)
}

func (r *Receiver) fireNaks() {
	if r.closed {
		return
	}
	r.nakTimer = nil
	now := r.cfg.Env.Now()
	var dueSeqs []uint64
	for seq, st := range r.missing {
		if !st.due.After(now) {
			dueSeqs = append(dueSeqs, seq)
		}
	}
	if len(dueSeqs) > 0 {
		// Bump retry state; abandon packets whose retry budget is spent.
		var nakSeqs []uint64
		for _, seq := range dueSeqs {
			st := r.missing[seq]
			st.naks++
			if st.naks > r.opts.MaxNaks {
				delete(r.missing, seq)
				r.abandoned[seq] = true
				r.stats.Abandoned++
				if r.cfg.OnLost != nil {
					r.cfg.OnLost(seq)
				}
				continue
			}
			backoff := r.opts.Timeout << uint(st.naks) // exponential from base
			st.due = now.Add(backoff)
			nakSeqs = append(nakSeqs, seq)
		}
		if len(nakSeqs) > 0 {
			r.sendNak(nakSeqs)
		}
		r.drain()
	}
	r.armNakTimer()
}

func (r *Receiver) sendNak(seqs []uint64) {
	ranges := toRanges(seqs)
	if len(ranges) > 255 {
		ranges = ranges[:255]
	}
	body, err := (&wire.NakBody{Ranges: ranges}).Encode(nil)
	if err != nil {
		return
	}
	r.cfg.Endpoint.Work(nakBuildWork)
	pkt := &wire.Packet{
		Type:    wire.TypeNak,
		Src:     r.cfg.Endpoint.Local(),
		Stream:  r.cfg.Stream,
		SentAt:  r.cfg.Env.Now(),
		Payload: body,
	}
	if err := r.cfg.Endpoint.Unicast(r.sender, pkt); err != nil {
		return
	}
	r.stats.NaksSent++
}

// drain delivers in-order (or immediately when Unordered) and skips
// abandoned packets.
func (r *Receiver) drain() {
	if r.opts.Unordered {
		// Deliver everything buffered, lowest first, without waiting.
		for len(r.buf) > 0 {
			seq, ok := minKey(r.buf)
			if !ok {
				break
			}
			r.seen[seq] = true
			r.deliver(seq)
		}
		if len(r.seen) > defaultHoldbackCap {
			for s := range r.seen {
				if s+defaultHoldbackCap < r.maxSeen {
					delete(r.seen, s)
				}
			}
		}
		// Ordered mode prunes abandoned seqs as the delivery cursor passes
		// them; unordered mode has no cursor, so age them out here or the
		// set grows without bound on long streams.
		if len(r.abandoned) > defaultHoldbackCap {
			for s := range r.abandoned {
				if s+defaultHoldbackCap < r.maxSeen {
					delete(r.abandoned, s)
				}
			}
		}
		return
	}
	for r.nextDeliver <= r.maxSeen {
		if _, ok := r.buf[r.nextDeliver]; ok {
			r.deliver(r.nextDeliver)
			r.nextDeliver++
			continue
		}
		if r.abandoned[r.nextDeliver] {
			delete(r.abandoned, r.nextDeliver)
			r.nextDeliver++
			continue
		}
		break
	}
}

func (r *Receiver) deliver(seq uint64) {
	e := r.buf[seq]
	delete(r.buf, seq)
	r.stats.Delivered++
	if e.recovered {
		r.stats.Recovered++
	}
	// Sequencing/holdback bookkeeping consumes CPU; delivery lands when
	// the CPU is done. Bursts released by a recovery stack up naturally.
	delay := r.cfg.Endpoint.Work(r.opts.ProcCost)
	r.emitq.Emit(delay, transport.Delivery{
		Stream:    r.cfg.Stream,
		Seq:       seq,
		Payload:   e.payload,
		SentAt:    e.sentAt,
		Recovered: e.recovered,
	})
}

func minKey(m map[uint64]bufEntry) (uint64, bool) {
	var best uint64
	found := false
	for k := range m {
		if !found || k < best {
			best, found = k, true
		}
	}
	return best, found
}

// toRanges compresses a seq set into sorted inclusive ranges.
func toRanges(seqs []uint64) []wire.SeqRange {
	if len(seqs) == 0 {
		return nil
	}
	sortUint64(seqs)
	var out []wire.SeqRange
	cur := wire.SeqRange{From: seqs[0], To: seqs[0]}
	for _, s := range seqs[1:] {
		if s == cur.To || s == cur.To+1 {
			cur.To = s
			continue
		}
		out = append(out, cur)
		cur = wire.SeqRange{From: s, To: s}
	}
	return append(out, cur)
}

func sortUint64(s []uint64) {
	// Insertion sort: NAK batches are small and often nearly sorted.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
