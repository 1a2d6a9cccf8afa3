// Package controlplane turns the R3 library into a long-lived planner
// service: an HTTP API over a versioned, atomically swapped plan store,
// a content-addressed plan cache, background re-precomputation on
// topology/traffic updates, and admission control (per-client token
// buckets plus a circuit breaker around precompute failures).
//
// The serving discipline follows the paper's architecture (§4.3, §5): a
// central server precomputes (r, p) ahead of failures, distributes the
// plan to routers, and keeps serving the previous plan until a new
// revision is fully built — readers never see a partially constructed
// plan, and any retained revision can be restored atomically.
package controlplane

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
)

// CacheKey identifies a precomputation output: the same topology, traffic
// matrix content, and solver configuration always produce the same plan
// bytes (the solvers are deterministic at every worker count), so the key
// is a complete identity for the cached plan.
type CacheKey struct {
	// Topo is TopologyDigest (= graph.Digest) of the graph.
	Topo uint64
	// Traffic is traffic.Matrix.Fingerprint of the demand matrix.
	Traffic uint64
	// Config is ConfigHash of the solver configuration.
	Config uint64
}

// String renders the key as topo/traffic/config in hex, the form log
// lines carry.
func (k CacheKey) String() string {
	return fmt.Sprintf("%016x/%016x/%016x", k.Topo, k.Traffic, k.Config)
}

// TopologyDigest returns graph.Digest(g): the content hash of everything
// about a graph that precomputation can observe. Kept as an alias so
// controlplane callers read naturally; the implementation lives in the
// graph package so lower layers (e.g. the transition scheduler's
// cross-plan guard) can share it without importing controlplane.
func TopologyDigest(g *graph.Graph) uint64 { return graph.Digest(g) }

// ConfigHash returns an FNV-1a hash of the plan-affecting fields of a
// core.Config. Workers is excluded (plans are byte-identical at any
// worker count), and so are Obs and LPWarmBasis (instrumentation never
// perturbs plans; a warm basis changes pivot counts, not the optimum of
// a re-solve of the same problem). A fixed BaseRouting is hashed only by
// presence — the daemon never sets one, and hashing a full flow here
// would duplicate the solvers' own identity.
func ConfigHash(cfg core.Config) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }

	u64(uint64(cfg.Solver))
	u64(uint64(cfg.Iterations))
	f64(cfg.PenaltyEnvelope)
	if cfg.BaseRouting != nil {
		u64(1)
	}
	switch m := cfg.Model.(type) {
	case nil:
		u64(0)
	case core.ArbitraryFailures:
		u64(1)
		u64(uint64(m.F))
	case core.GroupFailures:
		u64(2)
		u64(uint64(m.K))
		for _, gs := range [][][]graph.LinkID{m.SRLGs, m.MLGs} {
			u64(uint64(len(gs)))
			for _, grp := range gs {
				u64(uint64(len(grp)))
				for _, l := range grp {
					u64(uint64(l))
				}
			}
		}
	default:
		// Custom FailureModel implementations have no observable content
		// to hash beyond MaxFailures, so two custom models could collide
		// and wrongly share cache entries. The daemon only ever builds
		// the two concrete models above; callers embedding the server
		// with a custom model must key their own cache.
		u64(3)
		u64(uint64(m.MaxFailures()))
	}
	return h.Sum64()
}
