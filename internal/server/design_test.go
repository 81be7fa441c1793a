package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dyncontract/internal/contract"
)

// answerIDs are agent IDs every branch of the answer's string encoding
// meets: plain ASCII, each HTML character, a quote, a backslash, a
// control byte, non-ASCII and each line separator JavaScript cannot hold.
var answerIDs = []string{
	"h1", "a<b", "c>d", "e&f", `q"uote`, `back\slash`, "tab\there", "wörker-€", "line\u2028sep", "para\u2029sep",
}

// reflectionAnswer is DesignQueryResponse with the contract as a plain
// struct, so encoding/json encodes all of it by reflection.
type reflectionAnswer struct {
	AgentID  string `json:"agent_id,omitempty"`
	Contract struct {
		Knots []float64 `json:"knots"`
		Comps []float64 `json:"comps"`
	} `json:"contract"`
}

// wantAnswer returns what json.NewEncoder(w).Encode writes for the
// answer (id, c), failing t unless the reflection-only encoding of the
// same answer agrees.
func wantAnswer(t *testing.T, id string, c *contract.PiecewiseLinear) []byte {
	t.Helper()
	var enc, oracle bytes.Buffer
	if err := json.NewEncoder(&enc).Encode(DesignQueryResponse{AgentID: id, Contract: c}); err != nil {
		t.Fatal(err)
	}
	ref := reflectionAnswer{AgentID: id}
	ref.Contract.Knots, ref.Contract.Comps = c.Knots(), c.Comps()
	if err := json.NewEncoder(&oracle).Encode(ref); err != nil {
		t.Fatal(err)
	}
	if enc.String() != oracle.String() {
		t.Fatalf("json.Encoder writes\n%s but the reflection encoding is\n%s", enc.Bytes(), oracle.Bytes())
	}
	return enc.Bytes()
}

// serveRaw sends one POST through h and returns the status and body.
func serveRaw(h http.Handler, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// TestDesignAnswerBytes pins the design route's answer to the bytes
// json.NewEncoder(w).Encode(DesignQueryResponse{…}) writes, for queries
// by ID and inline (an empty inline ID omits agent_id), each asked twice
// so the second answer copies the contract's memoized encoding, and for
// two agents whose picks share one contract; and the answer encoder
// alone, with its exact length, on an ID no request can carry: invalid
// UTF-8, which encoding/json decodes to U+FFFD.
func TestDesignAnswerBytes(t *testing.T) {
	h := New(Config{}).Handler()
	req := testCreateReq()
	psi := req.Agents[0].Psi
	for i, id := range answerIDs[1:] {
		req.Agents = append(req.Agents, AgentSpec{ID: id, Class: "honest", Psi: psi, Beta: 1, Weight: 0.5 + float64(i)/7})
	}
	// Twins differ only in ID, so their picks land on one contract.
	twin := AgentSpec{Class: "honest", Psi: psi, Beta: 1, Weight: 0.75}
	for _, id := range []string{"twin-a", "twin-b"} {
		twin.ID = id
		req.Agents = append(req.Agents, twin)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	code, raw := serveRaw(h, "/v1/sessions", body)
	var created CreateSessionResponse
	if code != http.StatusCreated || json.Unmarshal(raw, &created) != nil {
		t.Fatalf("create: status %d: %s", code, raw)
	}
	path := "/v1/sessions/" + created.ID + "/design"

	check := func(name string, query DesignQueryRequest, id string) *contract.PiecewiseLinear {
		t.Helper()
		body, err := json.Marshal(query)
		if err != nil {
			t.Fatal(err)
		}
		var first []byte
		var c *contract.PiecewiseLinear
		for try := range 2 {
			code, got := serveRaw(h, path, body)
			var resp DesignQueryResponse
			if code != http.StatusOK || json.Unmarshal(got, &resp) != nil {
				t.Fatalf("%s: status %d: %s", name, code, got)
			}
			if want := wantAnswer(t, id, resp.Contract); !bytes.Equal(got, want) {
				t.Errorf("%s, query %d: the route answers\n%q\njson.Encoder writes\n%q", name, try+1, got, want)
			}
			if try > 0 && !bytes.Equal(got, first) {
				t.Errorf("%s: a repeated query answers\n%q\nthe first answered\n%q", name, got, first)
			}
			first, c = got, resp.Contract
		}
		return c
	}
	for _, id := range answerIDs {
		check("by id "+id, DesignQueryRequest{AgentID: id}, id)
	}
	for i, id := range append(answerIDs, "") {
		spec := req.Agents[i%len(req.Agents)]
		spec.ID, spec.Weight = id, 1.25e-7*float64(i+1)
		check(fmt.Sprintf("inline %q", id), DesignQueryRequest{Agent: &spec}, id)
	}
	for _, inline := range []bool{false, true} {
		var shared []*contract.PiecewiseLinear
		for _, id := range []string{"twin-a", "twin-b"} {
			query, name := DesignQueryRequest{AgentID: id}, "twin by id "+id
			if inline {
				twin.ID = id
				spec := twin
				query, name = DesignQueryRequest{Agent: &spec}, "twin inline "+id
			}
			shared = append(shared, check(name, query, id))
		}
		if !shared[0].Equal(shared[1]) {
			t.Errorf("twins (inline %v) got different contracts %v and %v", inline, shared[0], shared[1])
		}
	}

	c, err := contract.New([]float64{0, 1e-7, 2}, []float64{0, 3.5e-9, 1e21})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range append(answerIDs, "", "\xff\xfe", "caf\xc3", "\xed\xa0\x80", "del\x7f") {
		got, want := appendDesignAnswer(nil, id, c), wantAnswer(t, id, c)
		if !bytes.Equal(got, want) {
			t.Errorf("answer for %q:\n%q\njson.Encoder writes\n%q", id, got, want)
		}
		if n := designAnswerLen(id, c); n != len(got) {
			t.Errorf("designAnswerLen(%q) = %d, the answer has %d bytes", id, n, len(got))
		}
	}
}

// TestDesignBodyRead pins the design route's answers to an empty body and
// to a body past maxBodyBytes: 400, with the texts the route gave when
// encoding/json alone decoded its bodies.
func TestDesignBodyRead(t *testing.T) {
	h := New(Config{}).Handler()
	body, err := json.Marshal(testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	code, raw := serveRaw(h, "/v1/sessions", body)
	var created CreateSessionResponse
	if code != http.StatusCreated || json.Unmarshal(raw, &created) != nil {
		t.Fatalf("create: status %d: %s", code, raw)
	}
	path := "/v1/sessions/" + created.ID + "/design"
	big := append(bytes.Repeat([]byte(" "), maxBodyBytes), `{"agent_id":"h1"}`...)
	for _, tc := range []struct {
		name string
		body []byte
		want string
	}{
		{"empty", nil, "exactly one of agent_id or agent must be set: server: invalid request"},
		{"oversize", big, "http: request body too large: server: invalid request"},
	} {
		code, raw := serveRaw(h, path, tc.body)
		var resp errorResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("%s: %v: %s", tc.name, err, raw)
		}
		if code != http.StatusBadRequest || resp.Error != tc.want {
			t.Errorf("%s body: status %d %q, want 400 %q", tc.name, code, strings.TrimSpace(resp.Error), tc.want)
		}
	}
}
