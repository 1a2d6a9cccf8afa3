package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// tiny indirections keep the corruption test readable.
func jsonUnmarshal(b []byte, v interface{}) error { return json.Unmarshal(b, v) }
func jsonMarshal(v interface{}) ([]byte, error)   { return json.Marshal(v) }

func TestPlanEncodeDecodeRoundTrip(t *testing.T) {
	g := ring5(t)
	d := ring5Demand(g, 120)
	plan, err := Precompute(g, d, Config{Model: ArbitraryFailures{F: 1}, Iterations: 100})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodePlan(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if got.MLU != plan.MLU || got.NormalMLU != plan.NormalMLU {
		t.Fatalf("objective drift: %v/%v vs %v/%v", got.MLU, got.NormalMLU, plan.MLU, plan.NormalMLU)
	}
	if got.Model.MaxFailures() != 1 {
		t.Fatalf("model = %+v", got.Model)
	}
	pb, gb := denseBase(plan), denseBase(got)
	for k := range pb.Frac {
		for e := range pb.Frac[k] {
			a, b := pb.Frac[k][e], gb.Frac[k][e]
			if math.Abs(a-b) > 1e-12 && a > 1e-12 {
				t.Fatalf("base frac mismatch at %d/%d: %v vs %v", k, e, a, b)
			}
		}
	}
	pp, gp := denseProt(plan), denseProt(got)
	for l := range pp {
		for e := range pp[l] {
			a, b := pp[l][e], gp[l][e]
			if math.Abs(a-b) > 1e-12 && a > 1e-12 {
				t.Fatalf("prot mismatch at %d/%d: %v vs %v", l, e, a, b)
			}
		}
	}
	// The decoded plan reconfigures identically.
	s1, s2 := NewState(plan), NewState(got)
	if err := s1.FailAll(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := s2.FailAll(0, 5); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s1.MLU()-s2.MLU()) > 1e-9 {
		t.Fatalf("decoded plan reconfigures differently: %v vs %v", s1.MLU(), s2.MLU())
	}
}

func TestPlanDecodeGroupModel(t *testing.T) {
	g := ring5(t)
	g.AddSRLG(0, 1)
	g.AddMLG(2, 3)
	d := ring5Demand(g, 80)
	plan, err := Precompute(g, d, Config{Model: ModelFromGraph(g, 1), Iterations: 60})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodePlan(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := got.Model.(GroupFailures)
	if !ok || m.K != 1 || len(m.SRLGs) != 1 || len(m.MLGs) != 1 {
		t.Fatalf("decoded model = %+v", got.Model)
	}
}

func TestPlanDecodeRejectsWrongTopology(t *testing.T) {
	g := ring5(t)
	d := ring5Demand(g, 80)
	plan, err := Precompute(g, d, Config{Model: ArbitraryFailures{F: 1}, Iterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	other := mesh6(t)
	if _, err := DecodePlan(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatalf("plan accepted for wrong topology")
	}
}

func TestPlanDecodeRejectsCorruption(t *testing.T) {
	g := ring5(t)
	d := ring5Demand(g, 80)
	plan, err := Precompute(g, d, Config{Model: ArbitraryFailures{F: 1}, Iterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	corruptions := map[string][2]string{
		"wrong version":    {`"version":1`, `"version":99`},
		"wrong link count": {`"links":14`, `"links":13`},
	}
	for name, rep := range corruptions {
		s := strings.Replace(buf.String(), rep[0], rep[1], 1)
		if s == buf.String() {
			t.Fatalf("%s: pattern %q not found in wire format", name, rep[0])
		}
		if _, err := DecodePlan(strings.NewReader(s), g); err == nil {
			t.Fatalf("%s: corrupted plan accepted", name)
		}
	}
	// Structural corruption: blow up one protection fraction so [R2]
	// breaks for that commodity.
	var m map[string]interface{}
	if err := jsonUnmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	prot := m["prot"].([]interface{})
	row := prot[0].([]interface{})
	entry := row[0].(map[string]interface{})
	entry["f"] = 7.5
	blob, err := jsonMarshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePlan(bytes.NewReader(blob), g); err == nil {
		t.Fatalf("protection corruption accepted")
	}
	// Rows a decoder must not silently repair: a link listed twice in a
	// base or a protection row (the last entry used to win), a negative
	// demand, and an OD pair listed twice (a per-OD reader keeps one of
	// them, a per-row one counts both). Each error names the row and, for
	// a duplicate, the link.
	rowEdits := []struct {
		name string
		edit func(base, prot []interface{}) []interface{}
		want []string
	}{
		{"base link twice", func(base, _ []interface{}) []interface{} {
			c := base[0].(map[string]interface{})
			alloc := c["alloc"].([]interface{})
			c["alloc"] = append(alloc, alloc[0])
			return base
		}, []string{"base row 0", "link"}},
		{"protection link twice", func(base, prot []interface{}) []interface{} {
			row := prot[2].([]interface{})
			prot[2] = append(row, row[0])
			return base
		}, []string{"protection row 2", "link"}},
		{"negative demand", func(base, _ []interface{}) []interface{} {
			base[1].(map[string]interface{})["demand"] = -1.0
			return base
		}, []string{"base row 1", "demand -1"}},
		{"OD pair twice", func(base, _ []interface{}) []interface{} {
			return append(base, base[0])
		}, []string{"base rows 0 and"}},
	}
	for _, re := range rowEdits {
		var m map[string]interface{}
		if err := jsonUnmarshal(buf.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		m["base"] = re.edit(m["base"].([]interface{}), m["prot"].([]interface{}))
		blob, err := jsonMarshal(m)
		if err != nil {
			t.Fatal(err)
		}
		_, err = DecodePlan(bytes.NewReader(blob), g)
		if err == nil {
			t.Fatalf("%s: corrupted plan accepted", re.name)
		}
		for _, w := range re.want {
			if !strings.Contains(err.Error(), w) {
				t.Fatalf("%s: error %q does not name %q", re.name, err, w)
			}
		}
	}
	// Garbage input.
	if _, err := DecodePlan(strings.NewReader("not json"), g); err == nil {
		t.Fatalf("garbage accepted")
	}
}
