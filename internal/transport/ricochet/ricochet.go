// Package ricochet implements the Ricochet transport protocol (Balakrishnan
// et al., NSDI 2007) as used by the ANT framework: a bimodal multicast with
// Lateral Error Correction (LEC), a receiver-to-receiver forward-error-
// correction scheme.
//
// The sender multicasts data packets and never retransmits. Each receiver
// XORs every R directly-received packets into a repair packet and unicasts
// it to C randomly chosen peer receivers. A receiver missing exactly one of
// a repair's covered packets reconstructs it locally — recovery latency is
// receiver-to-receiver, decoupled from the sender's round trip.
//
// R and C are the protocol's tunables (the paper evaluates R=4,C=3 and
// R=8,C=3): R trades repair traffic and CPU against the probability that
// two losses land in one XOR group (unrecoverable by a single repair);
// C trades repair fan-out against per-receiver recovery probability.
//
// Delivery is immediate and unordered (time-critical mode): data packets go
// to the application the instant they arrive, recovered packets when they
// decode. Packets that no repair can reconstruct stay lost — Ricochet
// provides probabilistic, not absolute, reliability; that is exactly the
// latency/reliability trade the composite ReLate2 metrics score.
package ricochet

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"adamant/internal/env"
	"adamant/internal/transport"
	"adamant/internal/wire"
)

// Name is the protocol's registry/spec name.
const Name = "ricochet"

// Props advertises Ricochet's transport properties.
const Props = transport.PropMulticast | transport.PropFEC

// Defaults for Options fields left zero.
const (
	DefaultR      = 4
	DefaultC      = 3
	DefaultWindow = 4096

	// DefaultProcCost models the reference-machine CPU time the LEC
	// receiver spends per directly received data packet: window insert,
	// group bookkeeping, XOR accumulation, and its share of repair-stream
	// handling in the managed-runtime Ricochet implementation the paper
	// plugs into DDS. It is the dominant reason Ricochet's latency
	// advantage shrinks on slow (pc850-class) nodes; see DESIGN.md
	// ("calibration targets") for how this constant was fit.
	DefaultProcCost = 300 * time.Microsecond
	// DefaultDecodeCost is the per-recovery lateral-repair path cost at
	// reference speed: buffered-repair scan, XOR reconstruction, and
	// reassembly on the implementation's background recovery thread. It
	// delays recovered deliveries (machine-scaled) without occupying the
	// receive path.
	DefaultDecodeCost = 13 * time.Millisecond
	// DefaultFlush bounds how long a partially filled XOR group may sit
	// before its repair is sent anyway. Without it, recovery latency at
	// low data rates would be R packet intervals; with it, low-rate
	// repairs degenerate toward per-packet lateral copies (Slingshot-
	// style), which is what keeps Ricochet's recovery latency low at
	// 10-25 Hz.
	DefaultFlush = 8 * time.Millisecond

	maxPendingRepairs = 256
	repairBuildWork   = 60 * time.Microsecond
	repairPerByteWork = 20 * time.Nanosecond
	repairRecvWork    = 600 * time.Microsecond
)

// Options are Ricochet's tunables.
type Options struct {
	// R is the number of directly received packets XORed into one repair.
	R int
	// C is the number of peer receivers each repair is sent to.
	C int
	// Window is the receiver packet cache size used for XOR decoding and
	// duplicate suppression.
	Window int
	// ProcCost is the per-data-packet receiver processing cost at
	// reference-machine speed; deliveries are delayed by the scaled cost.
	ProcCost time.Duration
	// DecodeCost is the per-recovery decode cost at reference speed.
	DecodeCost time.Duration
	// Flush bounds the age of a partial XOR group before its repair is
	// emitted anyway. Negative disables the flush timer (classic fixed-R
	// grouping).
	Flush time.Duration
	// Stagger offsets this receiver's first XOR group: 0 derives the
	// offset from the node ID (default; peers' group boundaries then
	// interleave), -1 disables staggering, positive values are explicit.
	Stagger int
}

func (o *Options) fillDefaults() {
	if o.R <= 0 {
		o.R = DefaultR
	}
	if o.C <= 0 {
		o.C = DefaultC
	}
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	if o.ProcCost == 0 {
		o.ProcCost = DefaultProcCost
	}
	if o.DecodeCost == 0 {
		o.DecodeCost = DefaultDecodeCost
	}
	if o.Flush == 0 {
		o.Flush = DefaultFlush
	}
}

// staggerFor resolves the initial group offset for a node.
func (o Options) staggerFor(id wire.NodeID) int {
	switch {
	case o.Stagger < 0:
		return 0
	case o.Stagger > 0:
		return o.Stagger % o.R
	default:
		return int(id) % o.R
	}
}

// Spec returns the canonical transport.Spec for an (R, C) pair, e.g.
// Spec(4, 3) == "ricochet(c=3,r=4)".
func Spec(r, c int) transport.Spec {
	return transport.Spec{Name: Name, Params: transport.Params{
		"r": fmt.Sprintf("%d", r),
		"c": fmt.Sprintf("%d", c),
	}}
}

// ParseOptions extracts Options from spec params.
func ParseOptions(p transport.Params) (Options, error) {
	var o Options
	var err error
	if o.R, err = p.Int("r", DefaultR); err != nil {
		return o, err
	}
	if o.C, err = p.Int("c", DefaultC); err != nil {
		return o, err
	}
	if o.Window, err = p.Int("window", DefaultWindow); err != nil {
		return o, err
	}
	if o.ProcCost, err = p.Duration("proc", DefaultProcCost); err != nil {
		return o, err
	}
	if o.DecodeCost, err = p.Duration("decode", DefaultDecodeCost); err != nil {
		return o, err
	}
	if o.Flush, err = p.Duration("flush", DefaultFlush); err != nil {
		return o, err
	}
	if o.Stagger, err = p.Int("stagger", 0); err != nil {
		return o, err
	}
	if o.R < 2 {
		return o, fmt.Errorf("ricochet: r must be >= 2, got %d", o.R)
	}
	if o.C < 1 {
		return o, fmt.Errorf("ricochet: c must be >= 1, got %d", o.C)
	}
	if o.Window < o.R {
		return o, fmt.Errorf("ricochet: window %d smaller than r %d", o.Window, o.R)
	}
	return o, nil
}

// Factory returns the registry factory for Ricochet.
func Factory() *transport.Factory {
	return &transport.Factory{
		Name:  Name,
		Props: Props,
		NewSender: func(cfg transport.Config, params transport.Params) (transport.Sender, error) {
			if _, err := ParseOptions(params); err != nil {
				return nil, err
			}
			return NewSender(cfg)
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

// Sender is the writer-side Ricochet instance: pure multicast with sequence
// numbering; all recovery is lateral among receivers.
type Sender struct {
	cfg    transport.Config
	seq    uint64
	arena  transport.Arena
	closed bool
}

var _ transport.Sender = (*Sender)(nil)

// NewSender builds a Ricochet sender on cfg.Endpoint.
func NewSender(cfg transport.Config) (*Sender, error) {
	if err := cfg.ValidateSender(); err != nil {
		return nil, err
	}
	return &Sender{cfg: cfg, seq: cfg.BaseSeq}, nil
}

// Publish implements transport.Sender.
func (s *Sender) Publish(payload []byte) error {
	if s.closed {
		return transport.ErrClosed
	}
	s.seq++
	pkt := &wire.Packet{
		Type:    wire.TypeData,
		Src:     s.cfg.Endpoint.Local(),
		Stream:  s.cfg.Stream,
		Seq:     s.seq,
		SentAt:  s.cfg.Env.Now(),
		Payload: s.arena.Copy(payload),
	}
	return s.cfg.Endpoint.Multicast(pkt)
}

// Seq implements transport.Sender.
func (s *Sender) Seq() uint64 { return s.seq }

// Close implements transport.Sender.
func (s *Sender) Close() error {
	s.closed = true
	return nil
}

// Receiver is the reader-side Ricochet instance.
type Receiver struct {
	cfg  transport.Config
	opts Options
	mux  *transport.Mux
	rng  *rand.Rand

	window   map[uint64]*wire.Packet // received + recovered packets, for XOR decode
	lowWater uint64                  // seqs <= lowWater evicted from window
	group    []*wire.Packet          // directly received packets since last repair
	pending  []*wire.Repair          // repairs that could not decode yet
	// stagger skips this many initial receptions before the first XOR
	// group so different receivers' group boundaries interleave (their
	// reception orders differ in practice), which both speeds recovery
	// and lets shifted repairs resolve double losses by cascade.
	stagger    int
	flushTimer env.Timer
	flushFn    func() // r.flush, bound once so arming the timer allocates no closure
	emitq      transport.EmitQueue

	// Scratch reused across repairs: the repair being built, the repair
	// being decoded, the held siblings of a decode, and the peer and
	// target lists of repairTargets. Nothing handed to the endpoint
	// aliases them.
	build   wire.Repair
	decode  wire.Repair
	held    []*wire.Packet
	peers   []wire.NodeID
	targets []wire.NodeID

	stats  transport.ReceiverStats
	closed bool
}

var _ transport.Receiver = (*Receiver)(nil)

// NewReceiver builds a Ricochet receiver on cfg.Endpoint.
func NewReceiver(cfg transport.Config, opts Options) (*Receiver, error) {
	if err := cfg.ValidateReceiver(); err != nil {
		return nil, err
	}
	opts.fillDefaults()
	r := &Receiver{
		cfg:      cfg,
		opts:     opts,
		mux:      transport.NewMux(cfg.Endpoint),
		rng:      cfg.Env.Rand(fmt.Sprintf("ricochet/%d", cfg.Endpoint.Local())),
		window:   make(map[uint64]*wire.Packet),
		lowWater: cfg.BaseSeq,
		stagger:  opts.staggerFor(cfg.Endpoint.Local()),
	}
	r.emitq = transport.NewEmitQueue(cfg.Env, cfg.Deliver, &r.closed)
	r.flushFn = r.flush
	r.mux.Handle(wire.TypeData, r.onData)
	r.mux.Handle(wire.TypeRepair, r.onRepair)
	return r, nil
}

// Stats implements transport.Receiver.
func (r *Receiver) Stats() transport.ReceiverStats { return r.stats }

// Close implements transport.Receiver.
func (r *Receiver) Close() error {
	r.closed = true
	if r.flushTimer != nil {
		r.flushTimer.Stop()
		r.flushTimer = nil
	}
	return nil
}

func (r *Receiver) onData(src wire.NodeID, pkt *wire.Packet) {
	if r.closed || pkt.Stream != r.cfg.Stream || pkt.Seq == 0 {
		return
	}
	if pkt.Seq <= r.lowWater {
		r.stats.OutOfWindow++
		return
	}
	if _, dup := r.window[pkt.Seq]; dup {
		r.stats.Duplicates++
		return
	}
	stored := pkt.Clone()
	r.store(stored)
	// Per-packet LEC processing consumes CPU; delivery lands when the
	// CPU is done with it.
	r.deliverAfter(r.cfg.Endpoint.Work(r.opts.ProcCost), stored, false)

	// Accumulate toward the next repair: every R direct receptions emit
	// one XOR repair to C random peers (lateral error correction). The
	// initial stagger offsets this receiver's group boundaries from its
	// peers'.
	if r.stagger > 0 {
		r.stagger--
	} else {
		r.group = append(r.group, stored)
		if len(r.group) >= r.opts.R {
			r.emitRepair()
		} else if len(r.group) == 1 && r.opts.Flush > 0 {
			// Age-bound the partial group so low-rate streams still get
			// timely repairs.
			r.armFlush()
		}
	}
	r.decodePending()
}

func (r *Receiver) armFlush() {
	if r.flushTimer != nil {
		r.flushTimer.Stop()
	}
	r.flushTimer = r.cfg.Env.After(r.opts.Flush, r.flushFn)
}

// flush emits the partial group's repair when its age bound expires.
func (r *Receiver) flush() {
	r.flushTimer = nil
	if r.closed || len(r.group) == 0 {
		return
	}
	r.emitRepair()
}

func (r *Receiver) emitRepair() {
	if r.flushTimer != nil {
		r.flushTimer.Stop()
		r.flushTimer = nil
	}
	peers := r.repairTargets()
	defer func() { r.group = r.group[:0] }()
	if len(peers) == 0 {
		return
	}
	rep := &r.build
	rep.Reset()
	var bytes int
	for _, p := range r.group {
		rep.AddPacket(p)
		bytes += len(p.Payload)
	}
	r.cfg.Endpoint.Work(repairBuildWork + time.Duration(bytes)*repairPerByteWork)
	body, err := rep.Encode(nil)
	if err != nil {
		return
	}
	pkt := &wire.Packet{
		Type:    wire.TypeRepair,
		Src:     r.cfg.Endpoint.Local(),
		Stream:  r.cfg.Stream,
		Seq:     rep.Seqs[len(rep.Seqs)-1],
		SentAt:  r.cfg.Env.Now(),
		Payload: body,
	}
	for _, peer := range peers {
		if err := r.cfg.Endpoint.Unicast(peer, pkt); err != nil {
			continue
		}
		r.stats.RepairsSent++
	}
}

// repairTargets picks C random peer receivers with replacement (the
// original protocol's random targeting), deduplicated — so a repair may
// reach fewer than C distinct peers. The resulting imperfect coverage is
// part of Ricochet's probabilistic reliability. The returned slice is
// scratch, valid until the next call.
func (r *Receiver) repairTargets() []wire.NodeID {
	if r.cfg.Receivers == nil {
		return nil
	}
	peers := r.peers[:0]
	for _, id := range r.cfg.Receivers() {
		if id != r.cfg.Endpoint.Local() {
			peers = append(peers, id)
		}
	}
	r.peers = peers
	if len(peers) <= 1 {
		return peers
	}
	targets := r.targets[:0]
	for i := 0; i < r.opts.C; i++ {
		id := peers[r.rng.Intn(len(peers))]
		if !slices.Contains(targets, id) {
			targets = append(targets, id)
		}
	}
	r.targets = targets
	return targets
}

func (r *Receiver) onRepair(src wire.NodeID, pkt *wire.Packet) {
	if r.closed || pkt.Stream != r.cfg.Stream {
		return
	}
	rep := &r.decode
	if err := wire.DecodeRepairInto(rep, pkt.Payload); err != nil {
		return
	}
	r.cfg.Endpoint.Work(repairRecvWork)
	switch r.tryDecode(rep) {
	case decodeDone, decodeUseless:
		// Either recovered a packet (and cascaded) or nothing to recover.
	case decodeStuck:
		if len(r.pending) >= maxPendingRepairs {
			r.pending = r.pending[1:]
		}
		r.pending = append(r.pending, rep.Clone())
	}
	r.decodePending()
}

type decodeResult int

const (
	decodeDone decodeResult = iota
	decodeUseless
	decodeStuck
)

// tryDecode attempts to reconstruct from one repair. decodeDone means a
// packet was recovered; decodeUseless means the repair covers nothing
// missing (or is stale); decodeStuck means >= 2 covered packets are missing.
func (r *Receiver) tryDecode(rep *wire.Repair) decodeResult {
	var missingSeq uint64
	missing := 0
	held := r.held[:0]
	for _, seq := range rep.Seqs {
		if p, ok := r.window[seq]; ok {
			held = append(held, p)
			continue
		}
		if seq <= r.lowWater {
			// Evicted: we cannot XOR it out, so the repair is dead.
			r.stats.RepairsUseless++
			return decodeUseless
		}
		missing++
		missingSeq = seq
	}
	r.held = held[:0] // keep the grown buffer; held stays valid until the next call
	switch missing {
	case 0:
		r.stats.RepairsUseless++
		return decodeUseless
	case 1:
		// The recovery path runs off the receive thread: scale its cost
		// to this machine without blocking data-packet processing.
		delay := r.cfg.Endpoint.ScaleCPU(r.opts.DecodeCost) + r.cfg.Endpoint.Work(repairRecvWork)
		sentAt, payload, err := rep.Reconstruct(held)
		if err != nil {
			r.stats.RepairsUseless++
			return decodeUseless
		}
		recovered := &wire.Packet{
			Type:    wire.TypeData,
			Flags:   wire.FlagRecovered,
			Stream:  r.cfg.Stream,
			Seq:     missingSeq,
			SentAt:  sentAt,
			Payload: payload,
		}
		r.store(recovered)
		r.deliverAfter(delay, recovered, true)
		r.stats.RepairsUsed++
		return decodeDone
	default:
		return decodeStuck
	}
}

// decodePending retries buffered repairs until a pass makes no progress.
func (r *Receiver) decodePending() {
	for {
		progress := false
		kept := r.pending[:0]
		for _, rep := range r.pending {
			switch r.tryDecode(rep) {
			case decodeDone:
				progress = true
			case decodeUseless:
				// drop
			case decodeStuck:
				kept = append(kept, rep)
			}
		}
		r.pending = kept
		if !progress {
			return
		}
	}
}

func (r *Receiver) store(pkt *wire.Packet) {
	r.window[pkt.Seq] = pkt
	r.stats.NoteBuffered(len(r.window) + len(r.pending))
	if len(r.window) > r.opts.Window {
		r.evict()
	}
}

// evict drops the oldest quarter of the window and advances lowWater. Any
// sequence number passing below the low-water mark without ever having been
// delivered is now permanently unrecoverable and reported via OnLost.
func (r *Receiver) evict() {
	seqs := make([]uint64, 0, len(r.window))
	for s := range r.window {
		seqs = append(seqs, s)
	}
	// Partial selection: find the cutoff at the 25th percentile.
	target := len(seqs) / 4
	if target == 0 {
		target = 1
	}
	cutoff := quickSelect(seqs, target)
	if r.cfg.OnLost != nil {
		for s := r.lowWater + 1; s <= cutoff; s++ {
			if _, held := r.window[s]; !held {
				r.stats.Abandoned++
				r.cfg.OnLost(s)
			}
		}
	}
	for s := range r.window {
		if s <= cutoff {
			delete(r.window, s)
		}
	}
	if cutoff > r.lowWater {
		r.lowWater = cutoff
	}
}

// deliverAfter hands the sample up once the CPU has finished its protocol
// processing (delay as reported by Endpoint.Work).
func (r *Receiver) deliverAfter(delay time.Duration, pkt *wire.Packet, recovered bool) {
	r.stats.Delivered++
	if recovered {
		r.stats.Recovered++
	}
	r.emitq.Emit(delay, transport.Delivery{
		Stream:    r.cfg.Stream,
		Seq:       pkt.Seq,
		Payload:   pkt.Payload,
		SentAt:    pkt.SentAt,
		Recovered: recovered,
	})
}

// quickSelect returns the k-th smallest value (1-based) of s, reordering s.
func quickSelect(s []uint64, k int) uint64 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		pivot := s[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		if k-1 <= j {
			hi = j
		} else if k-1 >= i {
			lo = i
		} else {
			break
		}
	}
	return s[k-1]
}
