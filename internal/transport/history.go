package transport

import "time"

// History is a sender's retransmission ring: it keeps the most recently
// published packets so NAKs and resyncs can be answered. Retention is that
// of a ring of Limit slots indexed by seq % Limit: for sequence numbers
// put in increasing order, seq stays available until seq+Limit is put.
//
// The ring grows with use: it starts at historyMinSlots and doubles
// (capped at Limit) only when the slot about to be written still holds
// an entry the full ring would retain, so a short stream costs a few
// kilobytes instead of Limit entries up front.
//
// The zero value is unusable; build one with NewHistory. A History is not
// safe for concurrent use.
type History struct {
	limit int
	slots []HistEntry
}

// HistEntry is one retained packet.
type HistEntry struct {
	Seq     uint64
	SentAt  time.Time
	Payload []byte
}

// historyMinSlots is the ring's initial size.
const historyMinSlots = 64

// NewHistory returns an empty ring retaining up to limit packets. limit
// must be positive.
func NewHistory(limit int) History {
	return History{limit: limit, slots: make([]HistEntry, min(limit, historyMinSlots))}
}

// Limit returns how many of the latest packets the ring retains.
func (h *History) Limit() int { return h.limit }

// Put records a published packet. seq must be non-zero and larger than
// every sequence number put before.
func (h *History) Put(seq uint64, sentAt time.Time, payload []byte) {
	for len(h.slots) < h.limit {
		old := h.slots[seq%uint64(len(h.slots))].Seq
		if old == 0 || seq-old >= uint64(h.limit) {
			break // free, or an entry the full ring would have overwritten
		}
		h.grow()
	}
	h.slots[seq%uint64(len(h.slots))] = HistEntry{Seq: seq, SentAt: sentAt, Payload: payload}
}

// grow doubles the ring (capped at the limit) and rehashes its entries.
func (h *History) grow() {
	slots := make([]HistEntry, min(2*len(h.slots), h.limit))
	for _, e := range h.slots {
		if e.Seq != 0 {
			slots[e.Seq%uint64(len(slots))] = e
		}
	}
	h.slots = slots
}

// Get returns the entry for seq if the ring still holds it.
func (h *History) Get(seq uint64) (HistEntry, bool) {
	e := h.slots[seq%uint64(len(h.slots))]
	if seq == 0 || e.Seq != seq {
		return HistEntry{}, false
	}
	return e, true
}
