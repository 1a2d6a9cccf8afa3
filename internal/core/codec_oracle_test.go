package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// encodeJSON is the encoder EncodeBytes replaced, kept as its oracle: the
// whole wirePlan built in memory and handed to encoding/json.
func encodeJSON(p *Plan) ([]byte, error) {
	wp := wirePlan{wireHeader: wireHeader{
		Version:   planWireVersion,
		Topology:  p.G.Name,
		Nodes:     p.G.NumNodes(),
		Links:     p.G.NumLinks(),
		MLU:       p.MLU,
		NormalMLU: p.NormalMLU,
	}}
	switch m := p.Model.(type) {
	case ArbitraryFailures:
		wp.Model = wireModel{Type: "arbitrary", F: m.F}
	case GroupFailures:
		wp.Model = wireModel{Type: "group", K: m.K, SRLGs: m.SRLGs, MLGs: m.MLGs}
	case DegradationModel:
		wp.Model = wireModel{Type: "degradation", Beta: m.Beta, Budget: m.Budget, LinkBeta: m.LinkBeta}
	default:
		return nil, fmt.Errorf("core: cannot encode failure model %T", p.Model)
	}
	base := denseBase(p)
	for k, c := range base.Comms {
		wc := wireCommodity{Src: c.Src, Dst: c.Dst, Demand: c.Demand}
		for e, v := range base.Frac[k] {
			if v > 1e-12 {
				wc.Alloc = append(wc.Alloc, wireEntry{Link: graph.LinkID(e), Frac: v})
			}
		}
		wp.Base = append(wp.Base, wc)
	}
	wp.Prot = make([][]wireEntry, len(p.Prot))
	for l, fr := range denseProt(p) {
		for e, v := range fr {
			if v > 1e-12 {
				wp.Prot[l] = append(wp.Prot[l], wireEntry{Link: graph.LinkID(e), Frac: v})
			}
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&wp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// handPlan is a plan no solver would return: awkward floats in every
// float position, rows with no entry, a name that needs escaping.
func handPlan(t *testing.T, model FailureModel, demand float64) *Plan {
	t.Helper()
	g := ring5(t)
	g.Name = "ring<5>& \"\\\xff"
	nL := g.NumLinks()
	base := routing.NewFlow(g, []routing.Commodity{
		{Src: 0, Dst: 2, Demand: demand},
		{Src: 3, Dst: 1, Demand: 0},
		{Src: 4, Dst: 0, Demand: 1e21},
	})
	awkward := []float64{1, 0.1, 1e-6, 9.999999e-7, 1e-7, 1.5e-12, 1e-12, 1e-13, 0, -1, 1e20, 1e21, 1.2345678901234567e+100, math.SmallestNonzeroFloat64, math.MaxFloat64, 1.2345678901234567e-6, 1.2345678901234567e-300}
	for i, v := range awkward {
		base.Frac[i%2][(3*i)%nL] = v // commodity 2 keeps an empty row
	}
	prot := make([][]float64, nL)
	for l := range prot {
		prot[l] = make([]float64, nL)
		if l%3 != 0 { // every third row stays empty
			prot[l][(l+1)%nL] = awkward[l%len(awkward)]
			prot[l][(l+4)%nL] = 1 / float64(l+3)
		}
	}
	return withBase(&Plan{G: g, Model: model, Prot: sparseRows(prot), MLU: 1e-9, NormalMLU: 2.5e22}, base)
}

func TestEncodeBytesMatchesJSONOracle(t *testing.T) {
	plans := goldenPlans(t)
	g := ring5(t)
	dm := DegradationModel{Beta: 0.5, Budget: 2}
	p, err := Precompute(g, ring5Demand(g, 20), Config{Model: dm, Iterations: 20, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	plans["degradation"] = p
	for _, np := range statePlans(t) {
		plans[np.name] = np.plan
	}
	linkBeta := make([]float64, g.NumLinks())
	for i := range linkBeta {
		linkBeta[i] = 1e-7 * float64(i)
	}
	plans["hand-arbitrary"] = handPlan(t, ArbitraryFailures{}, 12.5)
	plans["hand-group"] = handPlan(t, GroupFailures{K: 2, SRLGs: [][]graph.LinkID{{0, 1}, {}}, MLGs: [][]graph.LinkID{{2}}}, 1e-7)
	plans["hand-degradation"] = handPlan(t, DegradationModel{Budget: 1e21, LinkBeta: linkBeta}, -1.2345678901234567e-300)
	empty := handPlan(t, ArbitraryFailures{F: 2}, 1)
	empty.Comms, empty.Base = nil, nil
	empty.Prot = nil
	plans["hand-empty"] = empty

	for name, plan := range plans {
		want, err := encodeJSON(plan)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		got, err := plan.EncodeBytes()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: EncodeBytes differs from encoding/json:\n got %s\nwant %s", name, got, want)
		}
		// The header ends where "base" begins (a name cannot hold a bare quote).
		if body := len(got) - bytes.Index(got, []byte(`,"base":`)); body > plan.wireSizeBound() {
			t.Errorf("%s: %d bytes after the header, wireSizeBound %d: the document outgrew its one allocation", name, body, plan.wireSizeBound())
		}
		var w bytes.Buffer
		if err := plan.Encode(&w); err != nil || !bytes.Equal(w.Bytes(), want) {
			t.Errorf("%s: Encode differs from encoding/json (err %v)", name, err)
		}
		if fp, err := plan.WireFingerprint(); err != nil || fp != Fingerprint(got) {
			t.Errorf("%s: WireFingerprint %016x (err %v), Fingerprint of the bytes %016x", name, fp, err, Fingerprint(got))
		}
	}

	// What encoding/json refuses, EncodeBytes refuses in the same words.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		inDemand := handPlan(t, ArbitraryFailures{F: 1}, bad)
		inFrac := handPlan(t, ArbitraryFailures{F: 1}, 1)
		frac := denseProt(inFrac)
		frac[1][0] = math.Abs(bad) // NaN and -Inf never pass the > 1e-12 filter
		inFrac.Prot = sparseRows(frac)
		inHeader := handPlan(t, ArbitraryFailures{F: 1}, 1)
		inHeader.MLU = bad
		for i, plan := range []*Plan{inDemand, inFrac, inHeader} {
			_, want := encodeJSON(plan)
			_, got := plan.EncodeBytes()
			if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
				t.Errorf("%v in position %d: EncodeBytes says %v, encoding/json %v", bad, i, got, want)
			}
			if _, fpErr := plan.WireFingerprint(); (fpErr == nil) != (want == nil) || (fpErr != nil && fpErr.Error() != want.Error()) {
				t.Errorf("%v in position %d: WireFingerprint says %v, encoding/json %v", bad, i, fpErr, want)
			}
		}
	}
}

func TestAppendWireFloatMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(f float64) {
		t.Helper()
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendWireFloat(nil, f)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("appendWireFloat(%b) = %s, %v; encoding/json writes %s", f, got, err, want)
		}
	}
	for i := 0; i < 200000; i++ {
		switch f := math.Float64frombits(rng.Uint64()); {
		case math.IsNaN(f) || math.IsInf(f, 0):
		case i%2 == 0:
			check(f) // any exponent
		default:
			check(rng.Float64() * math.Pow(10, float64(rng.Intn(40)-15))) // around both format switches
		}
	}
}

// TestEncodeAllocIsSteady guards what the benchmark's alloc_mb needs: an
// encode allocates the same whether or not collections ran since the last
// one. The encoding/json encoder did not (its document buffer lived in a
// sync.Pool that two collections empty).
func TestEncodeAllocIsSteady(t *testing.T) {
	plan := abilenePlan(t)
	encode := func() uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := plan.EncodeBytes(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	// TotalAlloc counts the whole process, so a goroutine another test left
	// behind can only add to a reading: compare the smallest of five.
	encode()
	warm, cold := ^uint64(0), ^uint64(0)
	for i := 0; i < 5; i++ {
		warm = min(warm, encode())
	}
	for i := 0; i < 5; i++ {
		runtime.GC()
		runtime.GC()
		cold = min(cold, encode())
	}
	// The header's few hundred bytes still go through encoding/json.
	if diff := int64(cold) - int64(warm); diff < -4096 || diff > 4096 {
		t.Fatalf("EncodeBytes allocated %d B right after an encode and %d B after two collections", warm, cold)
	}
	t.Logf("EncodeBytes: %d B warm, %d B cold", warm, cold)
}

// TestWireFingerprintStreams: the fingerprint hashes the encoding as it is
// written, so it allocates one wireChunk buffer (plus the header and the
// hash state) whatever the plan's size, where building the document cost
// its whole length. SBC's document spans many chunks, so every spill point
// is crossed, and the hash must still be the document's.
func TestWireFingerprintStreams(t *testing.T) {
	g := topo.SBC()
	plan, err := Precompute(g, traffic.Gravity(g, 0.15*g.TotalCapacity(), 1), Config{
		Model: ArbitraryFailures{F: 1}, Iterations: 20, PenaltyEnvelope: 1.1, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := plan.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if len(doc) < 4*wireChunk {
		t.Fatalf("SBC's document is %d B, want several %d B chunks", len(doc), wireChunk)
	}
	fp, err := plan.WireFingerprint()
	if err != nil || fp != Fingerprint(doc) {
		t.Fatalf("WireFingerprint %016x (err %v), Fingerprint of the document %016x", fp, err, Fingerprint(doc))
	}
	const ceiling = wireChunk + 2048
	got := allocBytes(5, func() { _, _ = plan.WireFingerprint() })
	if got > ceiling {
		t.Fatalf("WireFingerprint allocates %.0f B on a %d B document, want at most %d B", got, len(doc), ceiling)
	}
	t.Logf("WireFingerprint allocates %.0f B on a %d B document", got, len(doc))
}
