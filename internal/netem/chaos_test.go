package netem

import (
	"testing"

	"repro/internal/obs"
)

// goldenScenario is the fixed workload pinned against pre-chaos-PR
// behavior: Abilene at 150 Mbps, a Denver–LosAngeles ping, two duplex
// failures, three seconds of emulation.
func goldenScenario(t testing.TB, cfg Config) *Emulator {
	t.Helper()
	em, end := goldenEmulator(t, cfg)
	em.Run(end)
	return em
}

// goldenEmulator sets the golden scenario up and returns it unrun, with
// the time it runs to.
func goldenEmulator(t testing.TB, cfg Config) (*Emulator, float64) {
	t.Helper()
	g, d, _ := abileneSetup(t, 150)
	plan := planForAbilene(t, 150)
	cfg.G = g
	cfg.Forwarder = NewR3Distributed(plan)
	cfg.Seed = 1
	em := New(cfg)
	addTM(em, d, 3.0)
	den, _ := g.NodeByName("Denver")
	la, _ := g.NodeByName("LosAngeles")
	em.AddPing(den, la, 0.2, 3.0)
	em.FailAt(1.0, 0)
	em.FailAt(1.5, 8)
	return em, 3.0
}

func sumPhases(em *Emulator) (off, del, dr int64) {
	for _, p := range em.Phases() {
		off += totalOffered(p)
		del += totalDelivered(p)
		dr += totalDrops(p)
	}
	return
}

// TestChaosDisabledMatchesPrePRGolden pins the default-configuration
// emulation output to exact golden values: any drift means the chaos
// layer, the reliable flood or the invariant checker are not inert when
// disabled. The constants were originally captured from the pre-chaos
// tree and re-pinned when the SPF kernel moved to canonical (salted)
// tie-breaking, which legitimately changed which tied detour paths plans
// carry (plan quality and all layering invariants are pinned elsewhere).
func TestChaosDisabledMatchesPrePRGolden(t *testing.T) {
	em := goldenScenario(t, Config{})
	off, del, dr := sumPhases(em)
	if em.CtrlBytes != 6400 {
		t.Errorf("CtrlBytes = %d, pre-PR golden 6400", em.CtrlBytes)
	}
	if off != 57196500 || del != 56686500 || dr != 144000 {
		t.Errorf("off/del/drop = %d/%d/%d, golden 57196500/56686500/144000", off, del, dr)
	}
	if len(em.RTT) != 15 {
		t.Errorf("RTT samples = %d, pre-PR golden 15", len(em.RTT))
	}
	if len(em.Phases()) != 3 {
		t.Errorf("phases = %d, pre-PR golden 3", len(em.Phases()))
	}
	if got := em.Fingerprint(); got != goldenFingerprint {
		t.Errorf("Fingerprint = %#x, pinned %#x", got, goldenFingerprint)
	}
	if n := len(em.Violations()); n != 0 {
		t.Errorf("golden run recorded %d invariant violations", n)
	}
}

// goldenFingerprint is the canonical digest of the golden scenario with
// chaos disabled (raw counters above are pinned independently, so a
// serialization change and a behavior change are distinguishable).
const goldenFingerprint uint64 = 0x831742b7eddb5022

// TestChaosDeterminism: two runs with identical (Seed, ChaosSeed) must be
// byte-identical, chaos faults and all.
func TestChaosDeterminism(t *testing.T) {
	cfg := Config{Chaos: ChaosConfig{
		Enabled: true, Seed: 42,
		CtrlDrop: 0.3, CtrlDup: 0.1, CtrlJitter: 0.005,
		dataDrop: 0.02, detectJitter: 0.004,
	}}
	a := goldenScenario(t, cfg)
	b := goldenScenario(t, cfg)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("same (Seed, ChaosSeed) diverged: %#x vs %#x", a.Fingerprint(), b.Fingerprint())
	}
	if a.CtrlBytes != b.CtrlBytes || a.RefloodRoundsFired() != b.RefloodRoundsFired() {
		t.Fatalf("control plane diverged: ctrl %d/%d, rounds %d/%d",
			a.CtrlBytes, b.CtrlBytes, a.RefloodRoundsFired(), b.RefloodRoundsFired())
	}
}

// TestChaosEnabledGolden pins the golden scenario with every fault on —
// TestChaosDeterminism's control-packet drop, duplication and jitter,
// data drops and desynchronized detection — to exact values, so the chaos
// layer's draws and the event order they feed are held across changes,
// not only run against run.
func TestChaosEnabledGolden(t *testing.T) {
	em := goldenScenario(t, Config{Chaos: ChaosConfig{
		Enabled: true, Seed: 42,
		CtrlDrop: 0.3, CtrlDup: 0.1, CtrlJitter: 0.005,
		dataDrop: 0.02, detectJitter: 0.004,
	}})
	off, del, dr := sumPhases(em)
	if em.CtrlBytes != 57600 || off != 57196500 || del != 53436000 || dr != 3408000 {
		t.Errorf("ctrl %d, off/del/drop %d/%d/%d, golden 57600, 57196500/53436000/3408000", em.CtrlBytes, off, del, dr)
	}
	if len(em.RTT) != 15 || em.RefloodRoundsFired() != 352 {
		t.Errorf("RTT samples %d, reflood rounds %d, golden 15, 352", len(em.RTT), em.RefloodRoundsFired())
	}
	if got := em.Fingerprint(); got != chaosGoldenFingerprint {
		t.Errorf("Fingerprint = %#x, pinned %#x", got, chaosGoldenFingerprint)
	}
	if n := len(em.Violations()); n != 0 {
		t.Errorf("chaos golden run recorded %d invariant violations", n)
	}
}

// chaosGoldenFingerprint is the canonical digest of the golden scenario
// with every chaos fault on.
const chaosGoldenFingerprint uint64 = 0x23eea163232583b3

// TestChaosSeedIsolation: with every fault probability at zero, the chaos
// layer draws no randomness, so differing chaos seeds must not perturb
// the emulation at all and every chaos-labelled counter stays zero.
func TestChaosSeedIsolation(t *testing.T) {
	run := func(chaosSeed int64) (*Emulator, *obs.Registry) {
		reg := obs.NewRegistry()
		em := goldenScenario(t, Config{Obs: reg, Chaos: ChaosConfig{Enabled: true, Seed: chaosSeed}})
		return em, reg
	}
	a, ra := run(7)
	b, rb := run(8)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("chaos seed perturbed a zero-probability run: %#x vs %#x", a.Fingerprint(), b.Fingerprint())
	}
	for _, reg := range []*obs.Registry{ra, rb} {
		snap := reg.Snapshot()
		for _, name := range []string{"netem.chaos.dropped_ctrl", "netem.chaos.dropped_data", "netem.chaos.dup", "netem.chaos.reordered"} {
			if v := snap.Counters[name]; v != 0 {
				t.Errorf("%s = %d with all probabilities zero", name, v)
			}
		}
	}
}

// TestChaosSeedPerturbsOnlyChaosCounters: differing chaos seeds at a
// positive loss rate change which packets are hit (the chaos-labelled
// counters and, through real loss, the measurements), but both runs must
// still satisfy every invariant and fully reconverge.
func TestChaosSeedPerturbsOnlyChaosCounters(t *testing.T) {
	run := func(chaosSeed int64) (*Emulator, *obs.Registry) {
		reg := obs.NewRegistry()
		em := goldenScenario(t, Config{Obs: reg, Chaos: ChaosConfig{Enabled: true, Seed: chaosSeed, CtrlDrop: 0.3}})
		return em, reg
	}
	a, ra := run(1)
	b, rb := run(2)
	ca := ra.Snapshot().Counters["netem.chaos.dropped_ctrl"]
	cb := rb.Snapshot().Counters["netem.chaos.dropped_ctrl"]
	if ca == 0 || cb == 0 {
		t.Fatalf("no control packets dropped at 30%% loss: %d, %d", ca, cb)
	}
	// Data-plane chaos is off: the generated workload is untouched, so
	// per-phase offered bytes agree exactly across chaos seeds.
	for i := range a.Phases() {
		if totalOffered(a.Phases()[i]) != totalOffered(b.Phases()[i]) {
			t.Errorf("phase %d offered bytes differ across chaos seeds", i)
		}
	}
	for _, em := range []*Emulator{a, b} {
		if !em.FloodConverged() {
			t.Fatalf("run did not reconverge under 30%% control loss")
		}
		if n := len(em.Violations()); n != 0 {
			t.Fatalf("%d invariant violations: %v", n, em.Violations())
		}
	}
}

// TestChaosDataFaults exercises the data-plane injection point: drops
// show up in the chaos counters and in the phase loss accounting.
func TestChaosDataFaults(t *testing.T) {
	reg := obs.NewRegistry()
	em := goldenScenario(t, Config{Obs: reg, Chaos: ChaosConfig{Enabled: true, Seed: 3, dataDrop: 0.05}})
	snap := reg.Snapshot()
	if snap.Counters["netem.chaos.dropped_data"] == 0 {
		t.Fatal("no data packets chaos-dropped at 5% loss")
	}
	off, del, _ := sumPhases(em)
	if float64(del) > 0.99*float64(off) {
		t.Errorf("5%% chaos loss barely visible: delivered %d of %d", del, off)
	}
}
