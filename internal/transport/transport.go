// Package transport is the Adaptive Network Transports (ANT) framework: a
// pluggable-protocol layer beneath the pub/sub middleware. It defines the
// endpoint abstraction protocols send through, the protocol instance
// interfaces (Sender, Receiver), the property flags protocols advertise
// (multicast, NAK/ACK reliability, FEC, ordering, flow control, membership,
// fault detection), a string Spec format for naming configured protocols
// (e.g. "nakcast(timeout=1ms)", "ricochet(r=4,c=3)"), and a Registry that
// maps specs to factories.
//
// Protocol implementations live in subpackages (ricochet, nakcast, bemcast,
// ackcast) and are pure event-driven state machines: they own no goroutines
// and are driven entirely by endpoint receive callbacks and env timers, so
// they run identically under the deterministic simulator and the real
// clock.
package transport

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"adamant/internal/env"
	"adamant/internal/wire"
)

// Endpoint is the network attachment point a protocol instance sends and
// receives through. netem.Node implements it for simulation; udp.Endpoint
// implements it over real sockets.
//
// Implementations must invoke the receive handler serially (from env
// callbacks), never concurrently.
type Endpoint interface {
	// Local returns this endpoint's node ID.
	Local() wire.NodeID
	// MTU returns the maximum payload size for a single packet.
	MTU() int
	// Unicast sends pkt to one destination.
	Unicast(dst wire.NodeID, pkt *wire.Packet) error
	// Multicast sends pkt to every other node in the group.
	Multicast(pkt *wire.Packet) error
	// Work charges the local CPU with cost at reference-machine speed
	// (used to model protocol processing such as FEC XOR) and returns the
	// scaled time until the CPU is free again — protocols use it to delay
	// deliveries by their own processing time on slow machines. Returns 0
	// on real endpoints.
	Work(cost time.Duration) time.Duration
	// ScaleCPU converts a reference-machine duration to this node's CPU
	// speed without charging the receive path — for work that runs on a
	// background thread (e.g. Ricochet's recovery path). Identity on real
	// endpoints.
	ScaleCPU(d time.Duration) time.Duration
	// SetHandler registers the receive callback. Only one handler is
	// active; use a Mux to share an endpoint among consumers.
	SetHandler(func(src wire.NodeID, pkt *wire.Packet))
}

// Delivery is one sample handed to the application by a Receiver.
type Delivery struct {
	Stream      wire.StreamID
	Seq         uint64
	Payload     []byte
	SentAt      time.Time
	DeliveredAt time.Time
	// Recovered marks samples reconstructed via repair or retransmission
	// rather than received directly.
	Recovered bool
}

// Latency returns the end-to-end delivery latency of the sample.
func (d Delivery) Latency() time.Duration { return d.DeliveredAt.Sub(d.SentAt) }

// DeliverFunc receives samples on the application's behalf. It is called in
// env callback context; implementations must not block.
type DeliverFunc func(Delivery)

// Sender is a protocol's writer-side instance.
type Sender interface {
	// Publish sends one sample to the group.
	Publish(payload []byte) error
	// Seq returns the number of samples published so far.
	Seq() uint64
	// Close releases timers. Publish after Close returns an error.
	Close() error
}

// Receiver is a protocol's reader-side instance.
type Receiver interface {
	// Stats returns a snapshot of the receiver's protocol counters.
	Stats() ReceiverStats
	// Close releases timers and stops delivery.
	Close() error
}

// ReceiverStats are protocol-side counters exposed for tests, experiments,
// and ops visibility.
type ReceiverStats struct {
	Delivered      uint64 // samples handed to the application
	Recovered      uint64 // of Delivered, reconstructed ones
	Duplicates     uint64 // suppressed duplicate receptions
	NaksSent       uint64 // NAKcast: NAK packets sent
	RepairsSent    uint64 // Ricochet: repair packets sent
	RepairsUsed    uint64 // Ricochet: repairs successfully decoded
	RepairsUseless uint64 // Ricochet: repairs that could not decode
	Abandoned      uint64 // samples given up as unrecoverable
	OutOfWindow    uint64 // packets below the receive window
	// MaxBuffered is the high-water mark of the receiver's recovery state
	// (holdback buffers, gap trackers, decode windows, pending repairs) in
	// entries. The chaos crucible asserts it stays bounded by the stream
	// length: repair state that outgrows the data it repairs is a leak.
	MaxBuffered uint64
}

// NoteBuffered records a new recovery-state size observation, keeping the
// MaxBuffered high-water mark.
func (s *ReceiverStats) NoteBuffered(n int) {
	if uint64(n) > s.MaxBuffered {
		s.MaxBuffered = uint64(n)
	}
}

// Properties is the bitset of transport properties a protocol supports,
// mirroring the ANT framework's configurable property list.
type Properties uint32

// Property flags.
const (
	PropMulticast Properties = 1 << iota
	PropNAKReliability
	PropACKReliability
	PropFEC
	PropOrdered
	PropFlowControl
	PropMembership
	PropFaultDetection
)

var propNames = []struct {
	p    Properties
	name string
}{
	{PropMulticast, "multicast"},
	{PropNAKReliability, "nak-reliability"},
	{PropACKReliability, "ack-reliability"},
	{PropFEC, "fec"},
	{PropOrdered, "ordered"},
	{PropFlowControl, "flow-control"},
	{PropMembership, "membership"},
	{PropFaultDetection, "fault-detection"},
}

// Has reports whether p contains all of the given flags.
func (p Properties) Has(flags Properties) bool { return p&flags == flags }

// String implements fmt.Stringer as a "+"-joined flag list.
func (p Properties) String() string {
	var parts []string
	for _, pn := range propNames {
		if p.Has(pn.p) {
			parts = append(parts, pn.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// Config carries everything a protocol instance needs. Senders and
// receivers share the type; fields irrelevant to a side are ignored.
type Config struct {
	// Env supplies time, timers, and named random streams.
	Env env.Env
	// Endpoint is the network attachment. Each protocol instance must own
	// its endpoint handler; share endpoints via Mux.
	Endpoint Endpoint
	// Stream identifies the data stream (topic) this instance serves.
	Stream wire.StreamID
	// SenderID is the node that publishes the stream (NAK target).
	SenderID wire.NodeID
	// Receivers returns the current receiver set, including the local
	// node. Ricochet picks repair targets from it; implementations may
	// call it often, so it should be cheap.
	Receivers func() []wire.NodeID
	// Deliver receives samples (receiver side).
	Deliver DeliverFunc
	// OnLost, when non-nil, is notified of sequence numbers the transport
	// has given up recovering (maps to the DDS SAMPLE_LOST status).
	OnLost func(seq uint64)
	// BaseSeq rebases the instance's sequence space: the sender numbers its
	// first sample BaseSeq+1 and receivers treat sequences <= BaseSeq as
	// out of window. Hot-swap bindings use it so a new protocol generation
	// continues the stream's sequence space from the previous generation's
	// cut; zero (the default) is the classic from-the-start behavior.
	BaseSeq uint64
}

func (c *Config) validateCommon() error {
	if c.Env == nil {
		return errors.New("transport: config missing Env")
	}
	if c.Endpoint == nil {
		return errors.New("transport: config missing Endpoint")
	}
	return nil
}

// ValidateSender checks the fields a sender needs.
func (c *Config) ValidateSender() error { return c.validateCommon() }

// ValidateReceiver checks the fields a receiver needs.
func (c *Config) ValidateReceiver() error {
	if err := c.validateCommon(); err != nil {
		return err
	}
	if c.Deliver == nil {
		return errors.New("transport: receiver config missing Deliver")
	}
	return nil
}

// Params are string protocol parameters parsed from a Spec.
type Params map[string]string

// Int returns the named integer parameter or def if absent.
func (p Params) Int(key string, def int) (int, error) {
	s, ok := p[key]
	if !ok {
		return def, nil
	}
	// strconv.Atoi rather than Sscanf: the whole value must be the
	// integer, so "25%" or "8x" is a spec error instead of silently
	// parsing its numeric prefix.
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("transport: param %s=%q: %w", key, s, err)
	}
	return v, nil
}

// Duration returns the named duration parameter or def if absent.
func (p Params) Duration(key string, def time.Duration) (time.Duration, error) {
	s, ok := p[key]
	if !ok {
		return def, nil
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("transport: param %s=%q: %w", key, s, err)
	}
	return v, nil
}

// Spec names a protocol together with its tuning parameters, e.g.
// "ricochet(r=4,c=3)" or "nakcast(timeout=1ms)". The canonical string form
// sorts parameters alphabetically so equal specs compare equal as strings.
type Spec struct {
	Name   string
	Params Params
}

// String implements fmt.Stringer in canonical form.
func (s Spec) String() string {
	if len(s.Params) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('(')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(s.Params[k])
	}
	b.WriteByte(')')
	return b.String()
}

// ParseSpec parses the canonical spec syntax: name[(k=v,k=v,...)].
func ParseSpec(s string) (Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Spec{}, errors.New("transport: empty spec")
	}
	open := strings.IndexByte(s, '(')
	if open < 0 {
		if strings.ContainsAny(s, ")=,") {
			return Spec{}, fmt.Errorf("transport: malformed spec %q", s)
		}
		return Spec{Name: s}, nil
	}
	if !strings.HasSuffix(s, ")") {
		return Spec{}, fmt.Errorf("transport: malformed spec %q: missing ')'", s)
	}
	// Trimmed like the paren-less path, whose canonical String() this
	// is when there are no params.
	name := strings.TrimSpace(s[:open])
	if name == "" {
		return Spec{}, fmt.Errorf("transport: malformed spec %q: empty name", s)
	}
	// The same character restriction as the paren-less path, so every
	// accepted spec's canonical String() re-parses.
	if strings.ContainsAny(name, ")=,") {
		return Spec{}, fmt.Errorf("transport: malformed spec %q", s)
	}
	inner := s[open+1 : len(s)-1]
	params := Params{}
	if inner != "" {
		for _, kv := range strings.Split(inner, ",") {
			k, v, ok := strings.Cut(kv, "=")
			k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			if !ok || k == "" || v == "" {
				return Spec{}, fmt.Errorf("transport: malformed spec param %q in %q", kv, s)
			}
			if _, dup := params[k]; dup {
				return Spec{}, fmt.Errorf("transport: duplicate spec param %q in %q", k, s)
			}
			params[k] = v
		}
	}
	return Spec{Name: name, Params: params}, nil
}

// Factory builds protocol instances for one protocol family.
type Factory struct {
	// Name is the spec name ("ricochet", "nakcast", ...).
	Name string
	// Props advertises the protocol's transport properties.
	Props Properties
	// NewSender builds a writer-side instance.
	NewSender func(cfg Config, params Params) (Sender, error)
	// NewReceiver builds a reader-side instance.
	NewReceiver func(cfg Config, params Params) (Receiver, error)
}

// Registry maps protocol names to factories. The zero value is unusable;
// create with NewRegistry.
type Registry struct {
	factories map[string]*Factory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]*Factory)}
}

// Register adds a factory. Registering a duplicate or invalid factory is a
// programming error and returns one.
func (r *Registry) Register(f *Factory) error {
	if f == nil || f.Name == "" || f.NewSender == nil || f.NewReceiver == nil {
		return errors.New("transport: invalid factory")
	}
	if _, dup := r.factories[f.Name]; dup {
		return fmt.Errorf("transport: duplicate factory %q", f.Name)
	}
	r.factories[f.Name] = f
	return nil
}

// Lookup returns the factory for name.
func (r *Registry) Lookup(name string) (*Factory, error) {
	f, ok := r.factories[name]
	if !ok {
		return nil, fmt.Errorf("transport: unknown protocol %q", name)
	}
	return f, nil
}

// Names returns the registered protocol names, sorted.
func (r *Registry) Names() []string {
	names := make([]string, 0, len(r.factories))
	for n := range r.factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewSender instantiates the writer side of spec.
func (r *Registry) NewSender(spec Spec, cfg Config) (Sender, error) {
	f, err := r.Lookup(spec.Name)
	if err != nil {
		return nil, err
	}
	return f.NewSender(cfg, spec.Params)
}

// NewReceiver instantiates the reader side of spec.
func (r *Registry) NewReceiver(spec Spec, cfg Config) (Receiver, error) {
	f, err := r.Lookup(spec.Name)
	if err != nil {
		return nil, err
	}
	return f.NewReceiver(cfg, spec.Params)
}

// ErrClosed is returned by operations on closed protocol instances.
var ErrClosed = errors.New("transport: closed")

// Mux fans one endpoint's receive handler out to multiple consumers by
// packet type, so a membership detector and a protocol instance can share a
// node's endpoint. Every handler registered for a type sees every packet of
// that type; consumers filter by Stream themselves (wire.StreamID 0 is the
// reserved control stream used by membership).
type Mux struct {
	ep       Endpoint
	byType   map[wire.Type][]func(src wire.NodeID, pkt *wire.Packet)
	fallback func(src wire.NodeID, pkt *wire.Packet)
}

// NewMux wraps ep and installs itself as the endpoint handler.
func NewMux(ep Endpoint) *Mux {
	m := &Mux{ep: ep, byType: make(map[wire.Type][]func(src wire.NodeID, pkt *wire.Packet))}
	ep.SetHandler(m.dispatch)
	return m
}

// Handle adds h to the routes for packets of type t.
func (m *Mux) Handle(t wire.Type, h func(src wire.NodeID, pkt *wire.Packet)) {
	m.byType[t] = append(m.byType[t], h)
}

// HandleRest routes packets with no type-specific handler to h.
func (m *Mux) HandleRest(h func(src wire.NodeID, pkt *wire.Packet)) { m.fallback = h }

func (m *Mux) dispatch(src wire.NodeID, pkt *wire.Packet) {
	if hs := m.byType[pkt.Type]; len(hs) > 0 {
		for _, h := range hs {
			h(src, pkt)
		}
		return
	}
	if m.fallback != nil {
		m.fallback(src, pkt)
	}
}

// Endpoint returns the wrapped endpoint (for senders that need Unicast etc).
func (m *Mux) Endpoint() Endpoint { return m.ep }

// StaticReceivers adapts a fixed receiver list to the Config.Receivers
// field.
func StaticReceivers(ids ...wire.NodeID) func() []wire.NodeID {
	fixed := append([]wire.NodeID(nil), ids...)
	return func() []wire.NodeID { return fixed }
}

// arenaChunk is the allocation granularity of Arena. Payloads at or above
// a quarter of it get their own allocation so one big sample cannot waste
// most of a chunk.
const arenaChunk = 4096

// Arena amortizes the per-sample payload copies protocols make when they
// retain data past a receive or publish callback (history buffers, holdback
// queues, deliveries). Copies are carved sequentially from chunk-sized
// blocks, so the 12-byte experiment payloads cost one allocation per ~340
// samples instead of one each. Carved slices are never reused — they stay
// valid (and must be treated as immutable by later writers) for the life of
// the program, exactly like individually allocated copies.
//
// The zero value is ready to use. An Arena is not safe for concurrent use;
// give each protocol instance its own (the env serial-callback contract
// already guarantees single-threaded access).
type Arena struct {
	buf []byte
}

// Copy returns a stable copy of p backed by the arena. Copy(nil) returns
// nil, preserving payload nil-ness.
func (a *Arena) Copy(p []byte) []byte {
	n := len(p)
	if n == 0 {
		return nil
	}
	if n >= arenaChunk/4 {
		return append([]byte(nil), p...)
	}
	if len(a.buf) < n {
		a.buf = make([]byte, arenaChunk)
	}
	c := a.buf[:n:n]
	a.buf = a.buf[n:]
	copy(c, p)
	return c
}
