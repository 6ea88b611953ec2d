package transporttest

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"

	"adamant/internal/transport"
	"adamant/internal/wire"
)

// Handoff checks the packet hand-off rule of transport.Endpoint: once a
// packet is handed to Unicast or Multicast, nobody writes it again — not
// the sender, not any receiver. Wrap every endpoint of a run with one
// Handoff. It fingerprints each packet at its first send, compares the
// fingerprint when the same packet is sent again and whenever it is
// delivered to a wrapped endpoint, and Check compares every packet once
// more after the run. A Handoff is safe for use from several lanes of a
// sharded engine at once.
type Handoff struct {
	mu     sync.Mutex
	sums   map[*wire.Packet]uint64
	order  []*wire.Packet // first-send order, for a deterministic Check
	faults []string
	nfault int
}

// maxHandoffFaults bounds the fault descriptions kept for the report; the
// count keeps going.
const maxHandoffFaults = 10

// NewHandoff returns an empty checker.
func NewHandoff() *Handoff {
	return &Handoff{sums: make(map[*wire.Packet]uint64)}
}

// Wrap returns ep with every send fingerprinted and every delivery
// checked.
func (h *Handoff) Wrap(ep transport.Endpoint) transport.Endpoint {
	return &handoffEndpoint{Endpoint: ep, h: h}
}

// Packets returns how many distinct packets were handed off so far.
func (h *Handoff) Packets() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.order)
}

// Check fingerprints every packet handed off so far once more and returns
// an error describing every rewrite seen, during the run or now.
func (h *Handoff) Check() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, p := range h.order {
		if fingerprint(p) != h.sums[p] {
			h.faultLocked("%s rewritten after hand-off (found after the run)", describe(p))
		}
	}
	if h.nfault == 0 {
		return nil
	}
	return fmt.Errorf("%d hand-off violations, first %d:\n  %s",
		h.nfault, len(h.faults), strings.Join(h.faults, "\n  "))
}

func (h *Handoff) sent(from wire.NodeID, p *wire.Packet) {
	sum := fingerprint(p)
	h.mu.Lock()
	defer h.mu.Unlock()
	old, seen := h.sums[p]
	switch {
	case !seen:
		h.sums[p] = sum
		h.order = append(h.order, p)
	case old != sum:
		h.faultLocked("%s rewritten after hand-off (re-sent by node %d)", describe(p), from)
	}
}

func (h *Handoff) delivered(to wire.NodeID, p *wire.Packet) {
	sum := fingerprint(p)
	h.mu.Lock()
	defer h.mu.Unlock()
	if old, seen := h.sums[p]; seen && old != sum {
		h.faultLocked("%s rewritten after hand-off (delivered to node %d)", describe(p), to)
	}
}

func (h *Handoff) faultLocked(format string, args ...any) {
	h.nfault++
	if len(h.faults) < maxHandoffFaults {
		h.faults = append(h.faults, fmt.Sprintf(format, args...))
	}
}

func describe(p *wire.Packet) string {
	return fmt.Sprintf("%s packet from node %d, stream %d, seq %d, epoch %d",
		p.Type, p.Src, p.Stream, p.Seq, p.Epoch)
}

// fingerprint hashes every field of p and its payload bytes.
func fingerprint(p *wire.Packet) uint64 {
	var hdr [30]byte
	hdr[0] = byte(p.Type)
	hdr[1] = p.Flags
	binary.LittleEndian.PutUint16(hdr[2:], uint16(p.Src))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(p.Stream))
	binary.LittleEndian.PutUint64(hdr[8:], p.Seq)
	binary.LittleEndian.PutUint16(hdr[16:], p.Epoch)
	binary.LittleEndian.PutUint64(hdr[18:], uint64(p.SentAt.UnixNano()))
	binary.LittleEndian.PutUint32(hdr[26:], uint32(len(p.Payload)))
	f := fnv.New64a()
	f.Write(hdr[:])
	f.Write(p.Payload)
	return f.Sum64()
}

// handoffEndpoint is the wrapped endpoint Handoff.Wrap returns.
type handoffEndpoint struct {
	transport.Endpoint
	h *Handoff
}

func (e *handoffEndpoint) Unicast(dst wire.NodeID, pkt *wire.Packet) error {
	e.h.sent(e.Local(), pkt)
	return e.Endpoint.Unicast(dst, pkt)
}

func (e *handoffEndpoint) Multicast(pkt *wire.Packet) error {
	e.h.sent(e.Local(), pkt)
	return e.Endpoint.Multicast(pkt)
}

func (e *handoffEndpoint) SetHandler(fn func(src wire.NodeID, pkt *wire.Packet)) {
	local := e.Local()
	e.Endpoint.SetHandler(func(src wire.NodeID, pkt *wire.Packet) {
		e.h.delivered(local, pkt)
		fn(src, pkt)
	})
}
