package netem

import (
	"math/rand"

	"repro/internal/obs"
)

// ChaosConfig is the seeded adversarial fault-injection layer: the
// emulator's stand-in for the lossy control channels of wireless R3. All
// draws come from a dedicated RNG (Seed), fully independent of the
// packet-jitter stream, so the same (Config.Seed, Chaos.Seed) pair
// reproduces a run byte for byte, and a disabled chaos layer leaves the
// emulation untouched.
//
// Every probability is applied independently per packet per link
// traversal. Drop loses the packet after it consumed the transmitter
// (loss on the wire, not admission control); Dup delivers a second,
// independently jittered copy; Jitter adds a uniform extra delay in
// [0, Jitter) seconds to the arrival, which reorders packets that left
// in order.
type ChaosConfig struct {
	// Enabled switches the layer on; a zero ChaosConfig is inert.
	Enabled bool
	// Seed drives every chaos draw (the "ChaosSeed" of the determinism
	// contract).
	Seed int64
	// Control-plane (failure-notification) fault probabilities.
	CtrlDrop, CtrlDup float64
	// CtrlJitter is the max extra delivery delay for control packets.
	CtrlJitter float64
	// dataDrop is the data-packet drop probability. Only the package's
	// tests set it.
	dataDrop float64
	// detectJitter desynchronizes failure detection: each adjacent
	// router's detectDelay is stretched by an independent uniform draw in
	// [0, detectJitter) seconds. Only the package's tests set it.
	detectJitter float64
}

func (c *ChaosConfig) defaults() {
	clamp := func(p *float64) {
		if *p < 0 {
			*p = 0
		}
		if *p > 1 {
			*p = 1
		}
	}
	clamp(&c.CtrlDrop)
	clamp(&c.CtrlDup)
	clamp(&c.dataDrop)
}

// chaosState is the live fault injector: the dedicated RNG plus the
// chaos-labelled counters ("netem.chaos.*").
type chaosState struct {
	cfg ChaosConfig
	rng *rand.Rand

	droppedCtrl *obs.Counter
	droppedData *obs.Counter
	duplicated  *obs.Counter
	reordered   *obs.Counter
}

func newChaosState(cfg ChaosConfig, reg *obs.Registry) *chaosState {
	return &chaosState{
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed + 7919)),
		droppedCtrl: reg.Counter("netem.chaos.dropped_ctrl"),
		droppedData: reg.Counter("netem.chaos.dropped_data"),
		duplicated:  reg.Counter("netem.chaos.dup"),
		reordered:   reg.Counter("netem.chaos.reordered"),
	}
}

// jitter stretches an arrival time by a uniform draw in [0, max). The
// draw only happens when max > 0, so configurations with a knob at zero
// consume no randomness for it — differing chaos seeds then cannot
// perturb that part of the run.
func (c *chaosState) jitter(arrive, max float64) float64 {
	if max <= 0 {
		return arrive
	}
	d := c.rng.Float64() * max
	if d > 0 {
		c.reordered.Inc()
	}
	return arrive + d
}
