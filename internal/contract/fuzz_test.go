package contract

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzEval drives contract construction and evaluation with arbitrary
// float inputs: construction must reject bad shapes, and accepted
// contracts must evaluate monotonically within bounds for any query.
func FuzzEval(f *testing.F) {
	f.Add(0.0, 1.0, 2.0, 0.0, 0.5, 1.0, 0.7)
	f.Add(-5.0, 0.0, 5.0, 1.0, 1.0, 1.0, 100.0)
	f.Add(0.0, 0.0, 1.0, 0.0, 1.0, 2.0, 0.5) // duplicate knot: must reject
	f.Fuzz(func(t *testing.T, d0, d1, d2, x0, x1, x2, q float64) {
		c, err := New([]float64{d0, d1, d2}, []float64{x0, x1, x2})
		if err != nil {
			return // invalid shape rejected; nothing more to check
		}
		v := c.Eval(q)
		if math.IsNaN(q) {
			return // NaN queries have unspecified results but must not panic
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("Eval(%v) = %v on valid contract", q, v)
		}
		if v < x0-1e-9 || v > x2+1e-9 {
			t.Fatalf("Eval(%v) = %v outside [%v, %v]", q, v, x0, x2)
		}
		// Monotonicity against a nearby larger query.
		if !math.IsInf(q, 0) {
			q2 := q + math.Abs(q)*0.01 + 0.01
			if v2 := c.Eval(q2); v2 < v-1e-9 {
				t.Fatalf("Eval not monotone: Eval(%v)=%v > Eval(%v)=%v", q, v, q2, v2)
			}
		}
	})
}

// FuzzUnmarshalJSON hammers the JSON decoder: invalid payloads must be
// rejected, valid ones must round-trip.
func FuzzUnmarshalJSON(f *testing.F) {
	f.Add(`{"knots":[0,1],"comps":[0,1]}`)
	f.Add(`{"knots":[1,0],"comps":[0,1]}`)
	f.Add(`{}`)
	f.Add(`garbage`)
	f.Fuzz(func(t *testing.T, input string) {
		var c PiecewiseLinear
		if err := c.UnmarshalJSON([]byte(input)); err != nil {
			return
		}
		// Accepted contracts must be structurally valid.
		if c.Pieces() < 1 {
			t.Fatalf("decoder accepted contract with %d pieces", c.Pieces())
		}
		data, err := c.MarshalJSON()
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		var back PiecewiseLinear
		if err := back.UnmarshalJSON(data); err != nil {
			t.Fatalf("re-unmarshal: %v", err)
		}
		if !c.Equal(&back) {
			t.Fatal("JSON round trip changed the contract")
		}
	})
}

// FuzzContractJSON checks AppendJSON — its first, memo-filling call and
// a second one — and MarshalJSON against the reflection encoding they
// stand in for, json.Marshal of contractJSON, on arbitrary finite entries
// (the encoder does not depend on the contract being valid). It then
// decodes the sorted entries into the encoded contract, which must
// re-encode to its new values.
func FuzzContractJSON(f *testing.F) {
	for _, v := range jsonEdgeFloats {
		f.Add(v, -v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1)))
	}
	f.Fuzz(func(t *testing.T, d0, d1, x0, x1 float64) {
		for _, v := range []float64{d0, d1, x0, x1} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return // no contract holds one, and json.Marshal refuses it
			}
		}
		c := &PiecewiseLinear{knots: []float64{d0, d1}, comps: []float64{x0, x1}}
		checkContractJSON(t, c)
		if d0 == d1 {
			return
		}
		x0, x1 = math.Abs(x0), math.Abs(x1)
		data, err := json.Marshal(contractJSON{Knots: []float64{min(d0, d1), max(d0, d1)}, Comps: []float64{min(x0, x1), max(x0, x1)}})
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, c); err != nil {
			t.Fatalf("decode %s: %v", data, err)
		}
		checkContractJSON(t, c)
	})
}
