package transport

import (
	"fmt"
	"testing"
	"time"
)

// eagerRing is the fully allocated ring History replaces: slot seq%limit,
// overwritten in place.
type eagerRing []HistEntry

func (r eagerRing) put(e HistEntry) { r[e.Seq%uint64(len(r))] = e }

func (r eagerRing) get(seq uint64) (HistEntry, bool) {
	e := r[seq%uint64(len(r))]
	return e, seq != 0 && e.Seq == seq
}

// TestHistoryMatchesEagerRing: for every limit and stream length, after
// each put the growing ring answers every lookup exactly as the eager
// ring does, payload and timestamp included.
func TestHistoryMatchesEagerRing(t *testing.T) {
	for _, limit := range []int{1, 3, 4, 63, 64, 65, 100, 128, 300} {
		for _, base := range []uint64{0, 7, 1000} {
			h := NewHistory(limit)
			eager := make(eagerRing, limit)
			total := 3*limit + 70
			for i := 1; i <= total; i++ {
				seq := base + uint64(i)
				e := HistEntry{Seq: seq, SentAt: time.Unix(0, int64(seq)), Payload: []byte(fmt.Sprint(seq))}
				if i%5 == 0 {
					e.Payload = nil // nil payloads are retained like any other
				}
				h.Put(e.Seq, e.SentAt, e.Payload)
				eager.put(e)
				for q := uint64(0); q <= seq+2; q++ {
					got, gok := h.Get(q)
					want, wok := eager.get(q)
					if gok != wok || gok && (got.Seq != want.Seq || !got.SentAt.Equal(want.SentAt) || string(got.Payload) != string(want.Payload)) {
						t.Fatalf("limit %d base %d after seq %d: Get(%d) = %+v,%v, eager %+v,%v",
							limit, base, seq, q, got, gok, want, wok)
					}
				}
			}
			if h.Limit() != limit {
				t.Errorf("Limit() = %d, want %d", h.Limit(), limit)
			}
		}
	}
}

// TestHistoryGrowsWithUse: the ring starts at 64 slots, doubles only once
// the stream outgrows it, and never exceeds the limit.
func TestHistoryGrowsWithUse(t *testing.T) {
	h := NewHistory(1 << 14)
	if got := len(h.slots); got != 64 {
		t.Fatalf("fresh ring has %d slots, want 64", got)
	}
	steps := []struct{ puts, slots int }{{64, 64}, {65, 128}, {128, 128}, {129, 256}, {1 << 14, 1 << 14}, {1<<15 + 3, 1 << 14}}
	seq := uint64(0)
	for _, st := range steps {
		for int(seq) < st.puts {
			seq++
			h.Put(seq, time.Time{}, nil)
		}
		if got := len(h.slots); got != st.slots {
			t.Errorf("after %d puts: %d slots, want %d", st.puts, got, st.slots)
		}
	}
	if small := NewHistory(5); len(small.slots) != 5 {
		t.Errorf("limit 5 ring has %d slots, want 5", len(small.slots))
	}
}
