package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"reflect"
	"strconv"

	"repro/internal/graph"
	"repro/internal/routing"
)

// Plan wire format: the paper's architecture (§4.3) has a central server
// precompute (r, p) and distribute them to routers; this codec is that
// wire format. Fractions are stored sparsely (only nonzero allocations),
// so even the largest topology's plan stays small.

// planWireVersion guards against format drift.
const planWireVersion = 1

type wireEntry struct {
	Link graph.LinkID `json:"l"`
	Frac float64      `json:"f"`
}

type wireCommodity struct {
	Src    graph.NodeID `json:"src"`
	Dst    graph.NodeID `json:"dst"`
	Demand float64      `json:"demand"`
	Alloc  []wireEntry  `json:"alloc"`
}

type wireModel struct {
	Type  string           `json:"type"` // "arbitrary", "group" or "degradation"
	F     int              `json:"f,omitempty"`
	K     int              `json:"k,omitempty"`
	SRLGs [][]graph.LinkID `json:"srlgs,omitempty"`
	MLGs  [][]graph.LinkID `json:"mlgs,omitempty"`
	// Degradation-envelope parameters; every field is omitempty, so
	// classic plans serialize to the exact pre-degradation bytes.
	Beta     float64   `json:"beta,omitempty"`
	Budget   float64   `json:"budget,omitempty"`
	LinkBeta []float64 `json:"link_beta,omitempty"`
}

// wireHeader is everything in a plan but its two routings.
type wireHeader struct {
	Version   int       `json:"version"`
	Topology  string    `json:"topology"`
	Nodes     int       `json:"nodes"`
	Links     int       `json:"links"`
	Model     wireModel `json:"model"`
	MLU       float64   `json:"mlu"`
	NormalMLU float64   `json:"normal_mlu"`
}

type wirePlan struct {
	wireHeader
	Base []wireCommodity `json:"base"`
	// Prot[l] holds link l's protection allocations.
	Prot [][]wireEntry `json:"prot"`
}

// Encode writes the plan in its JSON wire format, in one Write.
func (p *Plan) Encode(w io.Writer) error {
	b, err := p.EncodeBytes()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// EncodeBytes returns the plan's JSON wire format as a byte slice — the
// exact bytes json.Encoder writes for a wirePlan. The control plane serves
// and caches these bytes directly, so a plan is distributed
// byte-identically however many times it is requested.
//
// Only the header goes through encoding/json. The two routings are
// appended straight from the dense rows: encoding/json builds the whole
// document (14.6 MB on generated-100) in a buffer it keeps in a sync.Pool,
// so what an encode allocated depended on whether collections had emptied
// the pool since the last one (33.6 MB more when they had).
func (p *Plan) EncodeBytes() ([]byte, error) {
	h := wireHeader{
		Version:   planWireVersion,
		Topology:  p.G.Name,
		Nodes:     p.G.NumNodes(),
		Links:     p.G.NumLinks(),
		MLU:       p.MLU,
		NormalMLU: p.NormalMLU,
	}
	switch m := p.Model.(type) {
	case ArbitraryFailures:
		h.Model = wireModel{Type: "arbitrary", F: m.F}
	case GroupFailures:
		h.Model = wireModel{Type: "group", K: m.K, SRLGs: m.SRLGs, MLGs: m.MLGs}
	case DegradationModel:
		h.Model = wireModel{Type: "degradation", Beta: m.Beta, Budget: m.Budget, LinkBeta: m.LinkBeta}
	default:
		return nil, fmt.Errorf("core: cannot encode failure model %T", p.Model)
	}
	head, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, len(head)+p.wireSizeBound())
	b = append(b, head[:len(head)-1]...) // reopened: the routings follow

	b = append(b, `,"base":`...)
	sep := byte('[')
	for k, c := range p.Base.Comms {
		b = append(b, sep)
		sep = ','
		b = append(b, `{"src":`...)
		b = strconv.AppendInt(b, int64(c.Src), 10)
		b = append(b, `,"dst":`...)
		b = strconv.AppendInt(b, int64(c.Dst), 10)
		b = append(b, `,"demand":`...)
		if b, err = appendWireFloat(b, c.Demand); err != nil {
			return nil, err
		}
		b = append(b, `,"alloc":`...)
		if b, err = appendWireEntries(b, p.Base.Frac[k]); err != nil {
			return nil, err
		}
		b = append(b, '}')
	}
	if sep == '[' {
		b = append(b, "null"...)
	} else {
		b = append(b, ']')
	}

	b = append(b, `,"prot":[`...)
	for l := range p.Prot {
		if l > 0 {
			b = append(b, ',')
		}
		if b, err = appendWireEntries(b, p.Prot[l]); err != nil {
			return nil, err
		}
	}
	return append(b, "]}\n"...), nil
}

// wireSizeBound bounds what EncodeBytes writes after the header, so that
// the document is one allocation (about a tenth over on generated-100):
// an id has at most idLen digits, a fraction at most 24 bytes, a demand 25.
func (p *Plan) wireSizeBound() int {
	idLen := len(strconv.Itoa(max(p.G.NumNodes(), p.G.NumLinks())))
	perEntry := len(`,{"l":,"f":}`) + idLen + 24
	size := len(`,"base":null,"prot":[]}`+"\n") +
		len(p.Base.Comms)*(len(`,{"src":,"dst":,"demand":,"alloc":null}`)+2*idLen+25) +
		len(p.Prot)*len(`,null`)
	for _, rows := range [][][]float64{p.Base.Frac, p.Prot} {
		for _, frac := range rows {
			for _, v := range frac {
				if v > 1e-12 {
					size += perEntry
				}
			}
		}
	}
	return size
}

// appendWireEntries appends the nonzero cells of one dense row as a
// []wireEntry: null when there are none.
func appendWireEntries(b []byte, frac []float64) ([]byte, error) {
	sep := byte('[')
	for e, v := range frac {
		if v > 1e-12 {
			b = append(b, sep)
			sep = ','
			b = append(b, `{"l":`...)
			b = strconv.AppendInt(b, int64(e), 10)
			b = append(b, `,"f":`...)
			var err error
			if b, err = appendWireFloat(b, v); err != nil {
				return nil, err
			}
			b = append(b, '}')
		}
	}
	if sep == '[' {
		return append(b, "null"...), nil
	}
	return append(b, ']'), nil
}

// appendWireFloat appends f as encoding/json writes a float64: shortest
// round-trip digits, exponent form outside [1e-6, 1e21) with a
// one-digit exponent unpadded, and no NaN or infinity.
func appendWireFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 is written e-9
		b = b[:n-1]
	}
	return b, nil
}

// WireFingerprint returns the Fingerprint of the plan's wire encoding. Two
// plans share a fingerprint iff they serialize to the same bytes, which is
// the identity the control plane's revision log and the byte-identity
// tests care about. A caller that already holds the bytes hashes those.
func (p *Plan) WireFingerprint() (uint64, error) {
	b, err := p.EncodeBytes()
	if err != nil {
		return 0, err
	}
	return Fingerprint(b), nil
}

// Fingerprint is the FNV-1a content hash of a plan's wire bytes.
func Fingerprint(wire []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(wire)
	return h.Sum64()
}

// DecodePlan reads a plan from its wire format and binds it to g, which
// must be the same topology the plan was computed for (name, node count
// and link count are verified; allocations are range-checked).
func DecodePlan(r io.Reader, g *graph.Graph) (*Plan, error) {
	var wp wirePlan
	if err := json.NewDecoder(r).Decode(&wp); err != nil {
		return nil, fmt.Errorf("core: decode plan: %v", err)
	}
	if wp.Version != planWireVersion {
		return nil, fmt.Errorf("core: plan version %d, want %d", wp.Version, planWireVersion)
	}
	if wp.Topology != g.Name || wp.Nodes != g.NumNodes() || wp.Links != g.NumLinks() {
		return nil, fmt.Errorf("core: plan for %s (%d/%d) does not match topology %s (%d/%d)",
			wp.Topology, wp.Nodes, wp.Links, g.Name, g.NumNodes(), g.NumLinks())
	}
	var model FailureModel
	switch wp.Model.Type {
	case "arbitrary":
		model = ArbitraryFailures{F: wp.Model.F}
	case "group":
		model = GroupFailures{K: wp.Model.K, SRLGs: wp.Model.SRLGs, MLGs: wp.Model.MLGs}
	case "degradation":
		dm := DegradationModel{Beta: wp.Model.Beta, Budget: wp.Model.Budget, LinkBeta: wp.Model.LinkBeta}
		if err := dm.Validate(); err != nil {
			return nil, fmt.Errorf("core: decoded degradation model invalid: %v", err)
		}
		model = dm
	default:
		return nil, fmt.Errorf("core: unknown failure model %q", wp.Model.Type)
	}

	comms := make([]routing.Commodity, len(wp.Base))
	for i, wc := range wp.Base {
		if int(wc.Src) >= g.NumNodes() || int(wc.Dst) >= g.NumNodes() || wc.Src < 0 || wc.Dst < 0 {
			return nil, fmt.Errorf("core: commodity %d endpoints out of range", i)
		}
		comms[i] = routing.Commodity{Src: wc.Src, Dst: wc.Dst, Demand: wc.Demand, Link: -1}
	}
	base := routing.NewFlow(g, comms)
	for i, wc := range wp.Base {
		for _, en := range wc.Alloc {
			if int(en.Link) >= g.NumLinks() || en.Link < 0 {
				return nil, fmt.Errorf("core: commodity %d references link %d", i, en.Link)
			}
			base.Frac[i][en.Link] = en.Frac
		}
	}
	if err := base.Validate(1e-5); err != nil {
		return nil, fmt.Errorf("core: decoded base routing invalid: %v", err)
	}

	if len(wp.Prot) != g.NumLinks() {
		return nil, fmt.Errorf("core: protection has %d rows, want %d", len(wp.Prot), g.NumLinks())
	}
	prot := make([][]float64, g.NumLinks())
	for l := range wp.Prot {
		prot[l] = make([]float64, g.NumLinks())
		for _, en := range wp.Prot[l] {
			if int(en.Link) >= g.NumLinks() || en.Link < 0 {
				return nil, fmt.Errorf("core: protection row %d references link %d", l, en.Link)
			}
			prot[l][en.Link] = en.Frac
		}
	}
	// The protection routing must itself satisfy [R1]-[R4] for its
	// head->tail commodities.
	pf := routing.NewFlow(g, routing.LinkCommodities(g))
	for l := range prot {
		copy(pf.Frac[l], prot[l])
	}
	if err := pf.Validate(1e-5); err != nil {
		return nil, fmt.Errorf("core: decoded protection routing invalid: %v", err)
	}

	return &Plan{
		G: g, Model: model, Base: base, Prot: prot,
		MLU: wp.MLU, NormalMLU: wp.NormalMLU,
	}, nil
}
