package netem

import (
	"testing"

	"repro/internal/obs"
)

// TestObsFloodReconfigLatency injects a failure under the flood-aware R3
// control plane with a live registry and checks the recorded
// reconfiguration latency and packet counters against the emulator's own
// ground truth (PhaseStats, CtrlBytes).
func TestObsFloodReconfigLatency(t *testing.T) {
	g, d, _ := abileneSetup(t, 100)
	plan := planForAbilene(t, 100)
	fw := NewR3Distributed(plan)
	reg := obs.NewRegistry()
	em := New(Config{G: g, Forwarder: fw, Seed: 1, Obs: reg})
	stop := 3.0
	addTM(em, d, stop)
	em.FailAt(1.0, 0)
	em.Run(stop)

	snap := reg.Snapshot()
	h, ok := snap.Histograms["netem.reconfig_us"]
	if !ok {
		t.Fatal("no netem.reconfig_us histogram in snapshot")
	}
	// A duplex failure converges once per direction.
	if h.Count != 2 {
		t.Fatalf("reconfig observations = %d, want 2 (one per direction)", h.Count)
	}
	// The flood cannot complete before the adjacent routers detect the
	// failure (detectDelay = 10ms) and must finish well within the run.
	if h.Min < 10_000 {
		t.Fatalf("reconfig latency %d µs is below the 10ms detection delay", h.Min)
	}
	if h.Max > 1_000_000 {
		t.Fatalf("flood reconfiguration took %d µs; expected well under a second", h.Max)
	}

	prefix := "netem." + fw.Name() + "."
	ctrl := snap.Counters[prefix+"ctrl_packets"]
	if ctrl == 0 || ctrl*64 != em.CtrlBytes {
		t.Fatalf("ctrl_packets = %d, but CtrlBytes = %d (64-byte notifications)", ctrl, em.CtrlBytes)
	}

	// Delivered/dropped counters tally 1500-byte data packets; the phase
	// stats account the same packets in bytes.
	var deliveredBytes, droppedBytes int64
	for _, p := range em.Phases() {
		deliveredBytes += totalDelivered(p)
		droppedBytes += totalDrops(p)
	}
	if got := snap.Counters[prefix+"delivered"]; got*1500 != deliveredBytes {
		t.Fatalf("delivered counter %d (×1500 = %d) != phase bytes %d", got, got*1500, deliveredBytes)
	}
	if got := snap.Counters[prefix+"dropped"]; got*1500 != droppedBytes {
		t.Fatalf("dropped counter %d (×1500 = %d) != phase bytes %d", got, got*1500, droppedBytes)
	}
	if snap.Counters[prefix+"forwarded"] == 0 {
		t.Fatal("forwarded counter is zero despite traffic")
	}
}

// TestObsGlobalReconfigLatency covers the non-flood path: with a plain
// Forwarder, reconfiguration completes exactly detectDelay+ConvergeDelay
// after the failure instant.
func TestObsGlobalReconfigLatency(t *testing.T) {
	g, d, _ := abileneSetup(t, 100)
	fw := NewOSPFRecon(g)
	reg := obs.NewRegistry()
	em := New(Config{G: g, Forwarder: fw, Seed: 1, ConvergeDelay: 0.5, Obs: reg})
	stop := 3.0
	addTM(em, d, stop)
	em.FailAt(1.0, 0)
	em.Run(stop)

	snap := reg.Snapshot()
	h, ok := snap.Histograms["netem.reconfig_us"]
	if !ok {
		t.Fatal("no netem.reconfig_us histogram in snapshot")
	}
	if h.Count != 2 {
		t.Fatalf("reconfig observations = %d, want 2", h.Count)
	}
	// detectDelay (10ms) + ConvergeDelay (500ms) = 510ms, modulo float
	// truncation to whole microseconds.
	if h.Min < 509_000 || h.Max > 511_000 {
		t.Fatalf("global reconfig latency [%d, %d] µs, want ≈510000", h.Min, h.Max)
	}
}

// TestObsNilRegistryIsInert re-runs the flood scenario without a registry:
// behavior and measurements must be identical (the instrumentation is
// passive), and nothing may panic on the nil handles.
func TestObsNilRegistryIsInert(t *testing.T) {
	g, d, _ := abileneSetup(t, 100)
	plan := planForAbilene(t, 100)
	run := func(reg *obs.Registry) (int64, int64) {
		em := New(Config{G: g, Forwarder: NewR3Distributed(plan), Seed: 1, Obs: reg})
		addTM(em, d, 2.0)
		em.FailAt(1.0, 0)
		em.Run(2.0)
		var delivered int64
		for _, p := range em.Phases() {
			delivered += totalDelivered(p)
		}
		return delivered, em.CtrlBytes
	}
	d1, c1 := run(nil)
	d2, c2 := run(obs.NewRegistry())
	if d1 != d2 || c1 != c2 {
		t.Fatalf("instrumentation changed the run: delivered %d/%d, ctrl %d/%d", d1, d2, c1, c2)
	}
}
