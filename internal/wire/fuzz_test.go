package wire

import (
	"bytes"
	"testing"
	"time"
)

// FuzzDecode asserts the codec never panics on arbitrary input, and that
// anything it accepts re-encodes to an equivalent packet.
func FuzzDecode(f *testing.F) {
	good, err := (&Packet{
		Type: TypeData, Src: 3, Stream: 9, Seq: 77,
		SentAt: time.Unix(0, 12345), Payload: []byte("seed"),
	}).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{magic})
	f.Add(good[:len(good)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		back, err := p.Marshal()
		if err != nil {
			t.Fatalf("decoded packet failed to re-encode: %v", err)
		}
		p2, err := Decode(back)
		if err != nil {
			t.Fatalf("re-encoded packet failed to decode: %v", err)
		}
		if p2.Type != p.Type || p2.Seq != p.Seq || p2.Src != p.Src || p2.Stream != p.Stream {
			t.Fatal("round-trip changed header fields")
		}
	})
}

// FuzzDecodeRepair asserts the repair body parser is total, and that
// decoding into a Repair still holding a longer repair leaks none of its
// bytes: the result equals a fresh DecodeRepair.
func FuzzDecodeRepair(f *testing.F) {
	rep := &Repair{Seqs: []uint64{1, 2, 3}, XORSentAt: 9, XORLen: 4, XORPayload: []byte{1, 2, 3, 4}}
	seed, err := rep.Encode(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{1})
	f.Add(seed[:len(seed)-2])
	dirtyPayload := bytes.Repeat([]byte{0xAA}, 300)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRepair(data)
		dirty := &Repair{Seqs: make([]uint64, maxRepairSeqs), XORSentAt: ^uint64(0), XORLen: 0xFFFF,
			XORPayload: append([]byte(nil), dirtyPayload...)}
		for i := range dirty.Seqs {
			dirty.Seqs[i] = ^uint64(i)
		}
		intoErr := DecodeRepairInto(dirty, data)
		if (err == nil) != (intoErr == nil) {
			t.Fatalf("DecodeRepair err %v, DecodeRepairInto err %v", err, intoErr)
		}
		if err != nil {
			return
		}
		if len(r.Seqs) == 0 || len(r.Seqs) > maxRepairSeqs {
			t.Fatalf("accepted repair with %d seqs", len(r.Seqs))
		}
		if !repairsEqual(dirty, r) {
			t.Fatalf("decoded into a used repair: %+v, fresh %+v", dirty, r)
		}
	})
}

// FuzzDecodeSymbol asserts the Fountcast symbol body parser is total and
// only accepts bodies the encoder could have produced.
func FuzzDecodeSymbol(f *testing.F) {
	sb := &SymbolBody{Block: 7, Count: 8, SymbolID: 2, Seed: 99, XORSentAt: 5, XORLen: 12, XORPayload: []byte{1, 2, 3}}
	seed, err := sb.Encode(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:symbolFixedSize])
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSymbol(data)
		if err != nil {
			return
		}
		if s.Count == 0 || s.Count > MaxSymbolCount {
			t.Fatalf("accepted symbol with count %d", s.Count)
		}
		if s.SymbolID == 0 {
			t.Fatal("accepted symbol id 0")
		}
		back, err := s.Encode(nil)
		if err != nil {
			t.Fatalf("accepted symbol failed to re-encode: %v", err)
		}
		s2, err := DecodeSymbol(back)
		if err != nil {
			t.Fatalf("re-encoded symbol failed to decode: %v", err)
		}
		if s2.Block != s.Block || s2.Count != s.Count || s2.SymbolID != s.SymbolID || s2.Seed != s.Seed {
			t.Fatal("round-trip changed symbol fields")
		}
	})
}

// FuzzDecodeNak asserts the NAK body parser is total and never returns
// inverted ranges.
func FuzzDecodeNak(f *testing.F) {
	nb := &NakBody{Ranges: []SeqRange{{From: 1, To: 5}}}
	seed, err := nb.Encode(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := DecodeNak(data)
		if err != nil {
			return
		}
		for _, r := range n.Ranges {
			if r.To < r.From {
				t.Fatalf("accepted inverted range %+v", r)
			}
		}
	})
}
