// Package repro is a from-scratch Go reproduction of "R3: Resilient
// Routing Reconfiguration" (Wang et al., SIGCOMM 2010): a routing
// protection scheme that precomputes a single protection routing which is
// provably congestion-free under multiple overlapping link failures,
// together with every substrate the paper's evaluation depends on.
//
// The library lives under internal/ (see DESIGN.md for the module map),
// with runnable entry points in cmd/ and examples/. cmd/r3sim prints
// every table and figure of the paper's evaluation; the internal/exp tests
// assert the claims EXPERIMENTS.md makes about them. The root package
// holds only the pinned plan digests (plan_digest_test.go).
//
//   - internal/core — R3 offline precomputation and online reconfiguration
//   - internal/protect — the baseline schemes R3 is compared against
//   - internal/eval — failure scenarios and the evaluation engine
//   - internal/mplsff, internal/netem — the MPLS-ff data plane and the
//     packet-level emulator standing in for the paper's Emulab testbed
//   - internal/exp — one driver per table/figure
//
// EXPERIMENTS.md records paper-vs-measured results for every artifact.
package repro
