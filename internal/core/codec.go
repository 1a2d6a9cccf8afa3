package core

import (
	"encoding/json"
	"fmt"
	"hash"
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
// appended straight from the plan's rows: encoding/json builds the whole
// document (14.6 MB on generated-100) in a buffer it keeps in a sync.Pool,
// so what an encode allocated depended on whether collections had emptied
// the pool since the last one (33.6 MB more when they had).
func (p *Plan) EncodeBytes() ([]byte, error) {
	head, err := p.wireHead()
	if err != nil {
		return nil, err
	}
	s := wireSink{b: make([]byte, 0, len(head)+p.wireSizeBound())}
	if err := p.encodeWire(&s, head); err != nil {
		return nil, err
	}
	return s.b, nil
}

// WireFingerprint returns the Fingerprint of the plan's wire encoding. Two
// plans share a fingerprint iff they serialize to the same bytes, which is
// the identity the control plane's revision log and the byte-identity
// tests care about. A caller that already holds the bytes hashes those.
//
// The encoding streams through the hash a buffer of wireChunk bytes at a
// time, so the document is never built.
func (p *Plan) WireFingerprint() (uint64, error) {
	head, err := p.wireHead()
	if err != nil {
		return 0, err
	}
	s := wireSink{b: make([]byte, 0, wireChunk), h: fnv.New64a()}
	if err := p.encodeWire(&s, head); err != nil {
		return 0, err
	}
	_, _ = s.h.Write(s.b)
	return s.h.Sum64(), nil
}

// Fingerprint is the FNV-1a content hash of a plan's wire bytes.
func Fingerprint(wire []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(wire)
	return h.Sum64()
}

// wireChunk is the buffer WireFingerprint streams the encoding through,
// and wireSlack the most the encoder appends between two spills: one
// commodity's opening or one allocation entry, with 20-digit ids and a
// 25-byte number.
const (
	wireChunk = 32 << 10
	wireSlack = 256
)

// wireSink receives the plan's wire encoding, either whole or streamed.
// Without h, b grows into the document. With h, spill hands b to h
// whenever fewer than wireSlack bytes of its wireChunk remain, so b never
// grows past it.
type wireSink struct {
	b []byte
	h hash.Hash64
}

// write puts p into the sink; when streaming, straight into the hash.
func (s *wireSink) write(p []byte) {
	if s.h == nil {
		s.b = append(s.b, p...)
		return
	}
	_, _ = s.h.Write(s.b)
	_, _ = s.h.Write(p)
	s.b = s.b[:0]
}

func (s *wireSink) spill() {
	if s.h != nil && len(s.b) > wireChunk-wireSlack {
		_, _ = s.h.Write(s.b)
		s.b = s.b[:0]
	}
}

// wireHead is the wire header: everything but the two routings, as
// encoding/json writes it.
func (p *Plan) wireHead() ([]byte, error) {
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
	return json.Marshal(h)
}

// encodeWire is the one encoder body behind EncodeBytes and
// WireFingerprint: the header reopened, then the two routings.
func (p *Plan) encodeWire(s *wireSink, head []byte) error {
	s.write(head[:len(head)-1]) // reopened: the routings follow

	s.b = append(s.b, `,"base":`...)
	sep := byte('[')
	var err error
	for k, c := range p.Comms {
		s.b = append(s.b, sep)
		sep = ','
		s.b = append(s.b, `{"src":`...)
		s.b = strconv.AppendInt(s.b, int64(c.Src), 10)
		s.b = append(s.b, `,"dst":`...)
		s.b = strconv.AppendInt(s.b, int64(c.Dst), 10)
		s.b = append(s.b, `,"demand":`...)
		if s.b, err = appendWireFloat(s.b, c.Demand); err != nil {
			return err
		}
		s.b = append(s.b, `,"alloc":`...)
		if err = s.entries(p.Base[k]); err != nil {
			return err
		}
		s.b = append(s.b, '}')
	}
	if sep == '[' {
		s.b = append(s.b, "null"...)
	} else {
		s.b = append(s.b, ']')
	}

	s.b = append(s.b, `,"prot":[`...)
	for l, r := range p.Prot {
		if l > 0 {
			s.b = append(s.b, ',')
		}
		if err = s.entries(r); err != nil {
			return err
		}
	}
	s.b = append(s.b, "]}\n"...)
	return nil
}

// wireSizeBound bounds what EncodeBytes writes after the header, so that
// the document is one allocation (about a tenth over on generated-100):
// an id has at most idLen digits, a fraction at most 24 bytes, a demand 25.
func (p *Plan) wireSizeBound() int {
	idLen := len(strconv.Itoa(max(p.G.NumNodes(), p.G.NumLinks())))
	perEntry := len(`,{"l":,"f":}`) + idLen + 24
	size := len(`,"base":null,"prot":[]}`+"\n") +
		len(p.Comms)*(len(`,{"src":,"dst":,"demand":,"alloc":null}`)+2*idLen+25) +
		len(p.Prot)*len(`,null`)
	for _, rows := range [...][]routing.SparseRow{p.Base, p.Prot} {
		for _, r := range rows {
			for _, v := range r.Val {
				if v > 1e-12 {
					size += perEntry
				}
			}
		}
	}
	return size
}

// entries appends the cells v > 1e-12 of one row of either routing, in
// ascending link order, as a []wireEntry: null when there are none.
func (s *wireSink) entries(r routing.SparseRow) error {
	sep := byte('[')
	for j, v := range r.Val {
		if v > 1e-12 {
			s.spill()
			s.b = append(s.b, sep)
			sep = ','
			s.b = append(s.b, `{"l":`...)
			s.b = strconv.AppendInt(s.b, int64(r.Idx[j]), 10)
			s.b = append(s.b, `,"f":`...)
			var err error
			if s.b, err = appendWireFloat(s.b, v); err != nil {
				return err
			}
			s.b = append(s.b, '}')
		}
	}
	s.spill()
	if sep == '[' {
		s.b = append(s.b, "null"...)
	} else {
		s.b = append(s.b, ']')
	}
	return nil
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

	// A row of either routing is decoded and checked in one reused dense
	// row and kept as its nonzeros; a protection row routes its link's
	// head to its tail.
	nL := g.NumLinks()
	comms, base := make([]routing.Commodity, len(wp.Base)), make([]routing.SparseRow, len(wp.Base))
	row, seen := make([]float64, nL), make([]bool, nL)
	rowOf := make(map[OD]int, len(wp.Base))
	for i, wc := range wp.Base {
		if int(wc.Src) >= g.NumNodes() || int(wc.Dst) >= g.NumNodes() || wc.Src < 0 || wc.Dst < 0 {
			return nil, fmt.Errorf("core: commodity %d endpoints out of range", i)
		}
		if !(wc.Demand >= 0) {
			return nil, fmt.Errorf("core: base row %d (%d->%d) has demand %v", i, wc.Src, wc.Dst, wc.Demand)
		}
		od := OD{wc.Src, wc.Dst}
		if j, dup := rowOf[od]; dup {
			return nil, fmt.Errorf("core: base rows %d and %d both route %d->%d", j, i, wc.Src, wc.Dst)
		}
		rowOf[od] = i
		comms[i] = routing.Commodity{Src: wc.Src, Dst: wc.Dst, Demand: wc.Demand, Link: -1}
		if err := decodeRow(g, comms[i], wc.Alloc, &base[i], row, seen); err != nil {
			return nil, fmt.Errorf("core: base row %d (%d->%d): %v", i, wc.Src, wc.Dst, err)
		}
	}

	if len(wp.Prot) != nL {
		return nil, fmt.Errorf("core: protection has %d rows, want %d", len(wp.Prot), nL)
	}
	prot := make([]routing.SparseRow, nL)
	for l, c := range routing.LinkCommodities(g) {
		if err := decodeRow(g, c, wp.Prot[l], &prot[l], row, seen); err != nil {
			return nil, fmt.Errorf("core: protection row %d: %v", l, err)
		}
	}

	return &Plan{
		G: g, Model: model, Comms: comms, Base: routing.Pack(base), Prot: routing.Pack(prot),
		MLU: wp.MLU, NormalMLU: wp.NormalMLU,
	}, nil
}

// decodeRow decodes a wire row into out through the dense row dst and
// checks it there: every link in range and listed once, and [R1]-[R4] for
// commodity c within 1e-5. dst and seen are all zero and all false on
// entry and on a nil return.
func decodeRow(g *graph.Graph, c routing.Commodity, alloc []wireEntry, out *routing.SparseRow, dst []float64, seen []bool) error {
	for _, en := range alloc {
		if int(en.Link) >= len(dst) || en.Link < 0 {
			return fmt.Errorf("references link %d", en.Link)
		}
		if seen[en.Link] {
			return fmt.Errorf("lists link %d twice", en.Link)
		}
		seen[en.Link] = true
		dst[en.Link] = en.Frac
	}
	for _, en := range alloc {
		seen[en.Link] = false
	}
	if err := c.Validate(g, dst, 1e-5); err != nil {
		return err
	}
	out.SetDense(dst)
	out.Clear(dst)
	return nil
}
