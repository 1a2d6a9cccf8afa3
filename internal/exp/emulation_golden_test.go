package exp

import (
	"hash/fnv"
	"testing"
)

// TestEmulationFingerprintGolden pins the r3emu path bit for bit: the FNV
// digest of every phase's canonical bytes plus the RTT samples (the digest
// r3bench's replay workload reports as emu.digest) of the Abilene
// emulation under both forwarding planes. A change to the emulator's event
// loop, the MPLS-ff data plane or the flood that moves one delivered byte,
// one phase boundary or one ping sample fails here.
func TestEmulationFingerprintGolden(t *testing.T) {
	want := map[string]uint64{
		"MPLS-ff+R3": 0xb586228b65550235,
		"OSPF+recon": 0x266c045ac74db771,
	}
	for name, w := range want {
		r := RunEmulation(name, EmulationConfig{PhaseSeconds: 0.5, Effort: 20, Seed: 1})
		h := fnv.New64a()
		var buf []byte
		for _, p := range r.Phases {
			buf = p.AppendCanonical(buf[:0])
			h.Write(buf)
		}
		for _, s := range r.RTT {
			hashFloats(h, s[0], s[1])
		}
		if got := h.Sum64(); got != w {
			t.Errorf("%s: digest %#016x, pinned %#016x", name, got, w)
		}
	}
}
