package mplsff

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// fnvHash is Router.Hash through hash/fnv: the flow's four fields
// big-endian, then the salt, into FNV-64a.
func fnvHash(r *Router, f FlowKey) uint32 {
	h := fnv.New64a()
	var buf [12]byte
	binary.BigEndian.PutUint32(buf[0:], f.SrcIP)
	binary.BigEndian.PutUint32(buf[4:], f.DstIP)
	binary.BigEndian.PutUint16(buf[8:], f.SrcPort)
	binary.BigEndian.PutUint16(buf[10:], f.DstPort)
	h.Write(buf[:])
	h.Write(r.salt[:])
	return uint32(h.Sum64() % hashBuckets)
}

// pickHashed is pick with no lone-entry shortcut: every segment hashes
// the flow through hash/fnv and walks the cumulative ratios.
func pickHashed(r *Router, entries []entry, f FlowKey) (entry, bool) {
	var total float64
	for _, e := range entries {
		total += e.ratio
	}
	if total <= 0 {
		return entry{}, false
	}
	x := (float64(fnvHash(r, f)) + 0.5) / hashBuckets * total
	var cum float64
	for _, e := range entries {
		cum += e.ratio
		if x <= cum && e.ratio > 0 {
			return e, true
		}
	}
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].ratio > 0 {
			return entries[i], true
		}
	}
	return entry{}, false
}

// TestPickMatchesHashingPath pins Router.Hash to hash/fnv and pick to
// the hashing path over random flows, salts and segments: half of them
// one entry (the shortcut), the rest two to five, with ratios from zero,
// negative and NaN through subnormal to the largest float.
func TestPickMatchesHashingPath(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ratio := func() float64 {
		switch rng.Intn(10) {
		case 0:
			return 0
		case 1:
			return []float64{-1, math.NaN(), math.SmallestNonzeroFloat64, 1e-12, math.MaxFloat64}[rng.Intn(5)]
		case 2:
			return 1
		}
		return rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
	}
	var lone, loneHit int
	for trial := 0; trial < 50000; trial++ {
		var salt [12]byte
		rng.Read(salt[:])
		r := newRouter(0, salt)
		f := FlowKey{SrcIP: rng.Uint32(), DstIP: rng.Uint32(), SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32())}
		if got, want := r.Hash(f), fnvHash(r, f); got != want {
			t.Fatalf("trial %d: Hash(%+v) = %d, hash/fnv %d", trial, f, got, want)
		}
		n := 1
		if rng.Intn(2) == 0 {
			n = 2 + rng.Intn(4)
		}
		entries := make([]entry, n)
		for i := range entries {
			entries[i] = entry{out: int32(i), ratio: ratio()}
		}
		got, gotOK := r.pick(entries, f)
		want, wantOK := pickHashed(r, entries, f)
		if gotOK != wantOK || got.out != want.out || math.Float64bits(got.ratio) != math.Float64bits(want.ratio) {
			t.Fatalf("trial %d: pick(%v) = %v, %v; hashing path %v, %v", trial, entries, got, gotOK, want, wantOK)
		}
		if n == 1 {
			lone++
			if gotOK {
				loneHit++
			}
		}
	}
	if loneHit < lone/2 {
		t.Fatalf("only %d of %d lone entries picked: the shortcut is barely exercised", loneHit, lone)
	}
}
