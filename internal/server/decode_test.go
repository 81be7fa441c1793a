package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dyncontract/internal/synth"
	"dyncontract/internal/synthpop"
	"dyncontract/internal/worker"
)

// fittedAgents builds n agents whose parameters carry full-precision
// floats, as fitted ones do (the archetype test agents hold short
// literals), with IDs that are not all ASCII.
func fittedAgents(n int) []AgentSpec {
	rng := rand.New(rand.NewSource(int64(n)))
	out := make([]AgentSpec, n)
	for i := range out {
		a := AgentSpec{
			ID:     fmt.Sprintf("w%04d", i),
			Class:  []string{"honest", "malicious", "community"}[i%3],
			Psi:    PsiSpec{R2: -rng.Float64() / 40, R1: 1 + rng.Float64(), R0: rng.Float64() * 1e-7},
			Beta:   1 + rng.NormFloat64()/10,
			Weight: rng.ExpFloat64() * 1e3,
		}
		if i%3 != 0 {
			a.Omega, a.Malice = rng.Float64(), rng.Float64()
		}
		if i%3 == 2 {
			a.Size, a.Reservation = 2+i%5, -rng.Float64()*1e-300
		}
		if i%4 == 3 {
			a.ID = fmt.Sprintf("wörker-%d-€", i)
		}
		out[i] = a
	}
	return out
}

// fastBodies are create bodies the single pass must decode by itself:
// json.Marshal output of both routes, indented output, whitespace
// everywhere, and edge values encoding/json writes or accepts.
func fastBodies(tb testing.TB) map[string][]byte {
	tb.Helper()
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	inline := CreateSessionRequest{Agents: fittedAgents(4), M: 10, Delta: 0.2, Mu: 1, Shards: 3,
		Policy: "exclude", Threshold: 0.35, Name: "fitted"}
	indented, err := json.MarshalIndent(inline, " ", "\t")
	if err != nil {
		tb.Fatal(err)
	}
	return map[string][]byte{
		"archetypes": marshal(CreateSessionRequest{Agents: archetypeAgents(3), M: 10, Delta: 0.2, Mu: 1}),
		"fitted":     marshal(inline),
		"indented":   indented,
		"synthetic":  marshal(CreateSessionRequest{Scale: "paper", Seed: -9223372036854775808, PerClass: 7, Policy: "fixed", Amount: 2.5}),
		"whitespace": []byte(" \r\n\t{ \"agents\" :\n[ { \"id\" : \"a\" ,\t\"psi\" : { \"r2\" : -0.25 , \"r1\" : 2 } } , {} ] ,\"m\":\r10 }\n\t "),
		"edges":      []byte(`{"delta":-0,"mu":1E+2,"seed":-0,"m":0,"agents":[{"beta":5e-324,"weight":1.7976931348623157e308,"size":-9,"class":"other","id":""}]}`),
		"empty":      []byte(`{}`),
		"no agents":  []byte(`{"agents":[]}`),
	}
}

// TestDecodeCreateSinglePass pins the hand-over rule from both sides: the
// single pass decodes the common shapes itself, to what decodeJSON gives,
// and hands everything outside its grammar to decodeJSON.
func TestDecodeCreateSinglePass(t *testing.T) {
	for name, body := range fastBodies(t) {
		var got, want CreateSessionRequest
		d := bodyDecoder{buf: body}
		if !d.request(&got) {
			t.Errorf("%s: the single pass declined %s", name, body)
			continue
		}
		if err := decodeJSON(bytes.NewReader(body), &want); err != nil {
			t.Fatalf("%s: decodeJSON: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) || fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
			t.Errorf("%s: single pass gives\n%#v\ndecodeJSON gives\n%#v", name, got, want)
		}
	}
	for _, body := range handedOver {
		var req CreateSessionRequest
		d := bodyDecoder{buf: []byte(body)}
		if d.request(&req) {
			t.Errorf("the single pass accepted %q", body)
		}
	}
}

// handedOver are bodies outside the single pass's grammar: decodeJSON
// decides each (accepting some, rejecting others).
var handedOver = []string{
	// Case-variant and unknown keys.
	`{"ID":"x"}`,
	`{"agents":[{"ID":"h1","class":"honest"}]}`,
	`{"agents":[{"id":"h1","Psi":{"r2":-0.25,"r1":2}}]}`,
	`{"agents":[{"id":"h1","psi":{"R1":2}}]}`,
	`{"Delta":0.2}`,
	`{"bogus":1}`,
	// Escapes, control bytes and invalid UTF-8.
	`{"agents":[{"id":"h\u0031"}]}`,
	`{"agents":[{"id":"caf\u00e9"}]}`,
	`{"agents":[{"id":"café\n"}]}`,
	`{"name":"tab` + "\t" + `"}`,
	"{\"agents\":[{\"id\":\"\xff\xfe\"}]}",
	"{\"agents\":[{\"id\":\"\xed\xa0\x80\"}]}",
	`{"\u006d":3}`,
	// null and wrong types.
	`null`,
	`{"agents":null}`,
	`{"name":null}`,
	`{"agents":[{"psi":null}]}`,
	`{"agents":[null]}`,
	`{"agents":{}}`,
	`{"m":"10"}`,
	`{"name":7}`,
	`{"mu":true}`,
	// Duplicate keys.
	`{"agents":[{"id":"a"}],"agents":[{"class":"honest"}]}`,
	`{"agents":[{"psi":{"r2":1},"psi":{"r1":2}}]}`,
	`{"agents":[{"psi":{"r2":1,"r2":2}}]}`,
	`{"m":1,"m":2}`,
	// Numbers a field cannot hold, and numbers outside JSON grammar.
	`{"agents":[{"size":2.0}]}`,
	`{"m":1e3}`,
	`{"mu":1e400}`,
	`{"delta":-1e400}`,
	`{"seed":9223372036854775808}`,
	`{"mu":01}`,
	`{"mu":.5}`,
	`{"mu":1.}`,
	`{"mu":+1}`,
	`{"mu":-}`,
	`{"mu":1e}`,
	`{"mu":NaN}`,
	// Syntax errors, truncation, trailing data, empty bodies.
	`{"agents":[{"id":"h1","class":"hon`,
	`{"agents":[{"id":"h1"}`,
	`{"m":1,}`,
	`{,}`,
	`{"m" 1}`,
	`{"agents":[{"id":"a"},]}`,
	`{} {}`,
	`{}x`,
	`[]`,
	``,
	" \n",
}

// FuzzDecodeCreate is the differential test of decodeCreate against the
// strict decodeJSON it stands in for: on every input both accept or both
// reject, an accepted body decodes to the same request bit for bit, and
// a rejected one carries the same error.
func FuzzDecodeCreate(f *testing.F) {
	for _, body := range fastBodies(f) {
		f.Add(body)
	}
	for _, body := range handedOver {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, want CreateSessionRequest
		gerr := decodeCreate(body, &got)
		werr := decodeJSON(bytes.NewReader(body), &want)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("decodeCreate error %v, decodeJSON error %v on %q", gerr, werr, body)
		}
		if gerr != nil {
			if gerr.Error() != werr.Error() {
				t.Fatalf("decodeCreate error %q, decodeJSON error %q on %q", gerr, werr, body)
			}
			return
		}
		// %#v tells -0 from 0, which reflect.DeepEqual does not.
		if !reflect.DeepEqual(got, want) || fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
			t.Fatalf("on %q decodeCreate gives\n%#v\ndecodeJSON gives\n%#v", body, got, want)
		}
	})
}

// designBodies are design query bodies the single pass must decode by
// itself: json.Marshal and json.MarshalIndent output of both query forms.
func designBodies(tb testing.TB) map[string][]byte {
	tb.Helper()
	agent := fittedAgents(4)[3]
	out := map[string][]byte{}
	for name, req := range map[string]DesignQueryRequest{
		"by id":  {AgentID: "h1"},
		"inline": {Agent: &agent},
	} {
		compact, err := json.Marshal(req)
		if err != nil {
			tb.Fatal(err)
		}
		indented, err := json.MarshalIndent(req, "", "  ")
		if err != nil {
			tb.Fatal(err)
		}
		out[name], out[name+" indented"] = compact, indented
	}
	return out
}

// designHandedOver are design bodies outside the single pass's grammar:
// decodeJSON decides each (accepting some, rejecting others).
var designHandedOver = []string{
	`{"Agent_id":"h1"}`,
	`{"AGENT":{"id":"x"}}`,
	`{"agent":null}`,
	`{"agent_id":"h1","agent":{"id":"x"}}`,
	`{"agent_id":"h1","agent_id":"h2"}`,
	`{"agent_id":"h1","bogus":1}`,
	`{"agent":{"id":"x","bogus":1}}`,
	`{"agent_id":"h\u0031"}`,
	`{"agent_id":null}`,
	`{"agent_id":"h1"} {}`,
	`{"agent_id":"h1"}x`,
	`{}`,
	`null`,
	``,
	" \n",
}

// TestDecodeDesignSinglePass pins decodeDesign's hand-over rule from both
// sides, as TestDecodeCreateSinglePass does for create bodies.
func TestDecodeDesignSinglePass(t *testing.T) {
	for name, body := range designBodies(t) {
		var got, want DesignQueryRequest
		d := bodyDecoder{buf: body}
		if !d.design(&got) {
			t.Errorf("%s: the single pass declined %s", name, body)
			continue
		}
		if err := decodeJSON(bytes.NewReader(body), &want); err != nil {
			t.Fatalf("%s: decodeJSON: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) || fmt.Sprintf("%#v", got.Agent) != fmt.Sprintf("%#v", want.Agent) {
			t.Errorf("%s: single pass gives\n%#v\ndecodeJSON gives\n%#v", name, got, want)
		}
	}
	for _, body := range designHandedOver {
		var req DesignQueryRequest
		d := bodyDecoder{buf: []byte(body)}
		if d.design(&req) {
			t.Errorf("the single pass accepted %q", body)
		}
	}
}

// FuzzDecodeDesign is the differential test of decodeDesign against the
// strict decodeJSON, as FuzzDecodeCreate is for create bodies.
func FuzzDecodeDesign(f *testing.F) {
	for _, body := range designBodies(f) {
		f.Add(body)
	}
	for _, body := range designHandedOver {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, want DesignQueryRequest
		gerr := decodeDesign(body, &got)
		werr := decodeJSON(bytes.NewReader(body), &want)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("decodeDesign error %v, decodeJSON error %v on %q", gerr, werr, body)
		}
		if gerr != nil {
			if gerr.Error() != werr.Error() {
				t.Fatalf("decodeDesign error %q, decodeJSON error %q on %q", gerr, werr, body)
			}
			return
		}
		// %#v of the agent tells -0 from 0, which reflect.DeepEqual does not.
		if !reflect.DeepEqual(got, want) || fmt.Sprintf("%#v", got.Agent) != fmt.Sprintf("%#v", want.Agent) {
			t.Fatalf("on %q decodeDesign gives\n%#v\ndecodeJSON gives\n%#v", body, got, want)
		}
	})
}

// TestDecodeCreateNumbersBitIdentical runs the single pass over the
// shortest, exponent and plain decimal texts of random float64 bit
// patterns: each must decode to decodeJSON's bits.
func TestDecodeCreateNumbersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		for _, text := range []string{
			strconv.FormatFloat(v, 'g', -1, 64),
			strconv.FormatFloat(v, 'e', 20, 64),
			strconv.FormatFloat(v, 'f', -1, 64),
		} {
			body := []byte(`{"mu":` + strings.Replace(text, "e+", "E+", 1) + `}`)
			var got CreateSessionRequest
			d := bodyDecoder{buf: body}
			if !d.request(&got) {
				t.Fatalf("the single pass declined %s", body)
			}
			var want CreateSessionRequest
			if err := decodeJSON(bytes.NewReader(body), &want); err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.Mu) != math.Float64bits(want.Mu) {
				t.Fatalf("%s: mu %x, decodeJSON %x", body, math.Float64bits(got.Mu), math.Float64bits(want.Mu))
			}
		}
	}
}

// archetypeBody is a create body shaped as perfbench's archetype-warm
// session: three agents drawn from the small-scale pipeline, one per
// class, repeated n times under fresh IDs in pairs at the archetype's
// weight w and 0.8·w, marshaled by encoding/json.
func archetypeBody(tb testing.TB, n int) []byte {
	tb.Helper()
	pipe, err := synthpop.BuildPipeline(synth.SmallScale(1))
	if err != nil {
		tb.Fatal(err)
	}
	pop, err := pipe.BuildPopulation(synthpop.DefaultParams(), 50)
	if err != nil {
		tb.Fatal(err)
	}
	var arch []AgentSpec
	seen := map[worker.Class]bool{}
	for _, a := range pop.Agents {
		if !seen[a.Class] {
			seen[a.Class] = true
			arch = append(arch, agentSpecOf(a, pop.Weights[a.ID], pop.MaliceProb[a.ID]))
		}
	}
	req := CreateSessionRequest{M: pop.Part.M, Delta: pop.Part.Delta, Mu: pop.Mu}
	for i := 0; i < n; i++ {
		a := arch[(i/2)%len(arch)]
		a.ID = fmt.Sprintf("agent-%06d", i)
		if i%2 == 1 {
			a.Weight *= 0.8
		}
		req.Agents = append(req.Agents, a)
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkCreateSession measures a session's creation from an inline
// body of n archetype agents, n in {1k, 12k} (12k is archetype-warm's
// session): decode is decodeCreate alone, decode-json the strict
// encoding/json decodeJSON it stands in for, create the whole POST
// /v1/sessions through Handler() up to its 201, and create+round that
// create and the session's first round up to its 200 — the span
// perfbench's setup_s samples — on a fresh server each time (set up and
// drained off the clock).
func BenchmarkCreateSession(b *testing.B) {
	for _, n := range []int{1_000, 12_000} {
		body := archetypeBody(b, n)
		b.Run(fmt.Sprintf("n=%dk", n/1000), func(b *testing.B) {
			b.Run("decode", func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var req CreateSessionRequest
					if err := decodeCreate(body, &req); err != nil || len(req.Agents) != n {
						b.Fatalf("decodeCreate: %d agents, %v", len(req.Agents), err)
					}
				}
			})
			b.Run("decode-json", func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var req CreateSessionRequest
					if err := decodeJSON(bytes.NewReader(body), &req); err != nil || len(req.Agents) != n {
						b.Fatalf("decodeJSON: %d agents, %v", len(req.Agents), err)
					}
				}
			})
			for _, arm := range []struct {
				name  string
				round bool
			}{{"create", false}, {"create+round", true}} {
				b.Run(arm.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						srv := New(Config{})
						h := srv.Handler()
						req := httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body))
						rec := httptest.NewRecorder()
						b.StartTimer()
						h.ServeHTTP(rec, req)
						if rec.Code != http.StatusCreated {
							b.Fatalf("create: status %d: %s", rec.Code, rec.Body)
						}
						if arm.round {
							var cr CreateSessionResponse
							if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
								b.Fatal(err)
							}
							req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+cr.ID+"/rounds", nil)
							rec := httptest.NewRecorder()
							h.ServeHTTP(rec, req)
							if rec.Code != http.StatusOK {
								b.Fatalf("round: status %d: %s", rec.Code, rec.Body)
							}
						}
						b.StopTimer()
						if err := srv.Drain(context.Background()); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
				})
			}
		})
	}
}
