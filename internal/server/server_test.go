package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dyncontract/internal/engine"
	"dyncontract/internal/platform"
	"dyncontract/internal/synth"
	"dyncontract/internal/telemetry"
)

// testAgents is a small explicit population covering all three classes:
// ψ is strictly increasing on [0, yMax] for the m=10, δ=0.2 partition
// (ψ'(y) = 2·(−0.25)·y + 2 ≥ 1 at y = 2).
func testAgents() []AgentSpec {
	psi := PsiSpec{R2: -0.25, R1: 2, R0: 0}
	return []AgentSpec{
		{ID: "h1", Class: "honest", Psi: psi, Beta: 1, Weight: 1},
		{ID: "h2", Class: "honest", Psi: psi, Beta: 1, Weight: 1},
		{ID: "m1", Class: "malicious", Psi: psi, Beta: 1, Omega: 0.5, Weight: 0.8, Malice: 0.9},
		{ID: "c1", Class: "community", Psi: psi, Beta: 1, Omega: 0.3, Size: 3, Weight: 0.5},
	}
}

func testCreateReq() CreateSessionRequest {
	return CreateSessionRequest{Agents: testAgents(), M: 10, Delta: 0.2, Mu: 1}
}

// testServer wires a Server into an httptest.Server.
type testServer struct {
	srv *Server
	ts  *httptest.Server
}

func newTestServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &testServer{srv: srv, ts: ts}
}

// do issues one JSON request and decodes the response into out (skipped
// when out is nil), returning the status code.
func (e *testServer) do(t *testing.T, method, path string, in, out any) int {
	t.Helper()
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("marshal %T: %v", in, err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, e.ts.URL+path, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode
}

// createSession creates a session from the canonical explicit payload.
func (e *testServer) createSession(t *testing.T) string {
	t.Helper()
	req := testCreateReq()
	var resp CreateSessionResponse
	if code := e.do(t, "POST", "/v1/sessions", &req, &resp); code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	if resp.Agents != len(req.Agents) {
		t.Fatalf("created with %d agents, want %d", resp.Agents, len(req.Agents))
	}
	return resp.ID
}

func TestSessionLifecycle(t *testing.T) {
	e := newTestServer(t, Config{Metrics: telemetry.NewRegistry()})
	id := e.createSession(t)

	// Advance three rounds; the ledger and the info endpoint must agree.
	var last RoundJSON
	for i := 0; i < 3; i++ {
		req := AdvanceRoundRequest{IncludeOutcomes: true}
		if code := e.do(t, "POST", "/v1/sessions/"+id+"/rounds", &req, &last); code != http.StatusOK {
			t.Fatalf("round %d: status %d", i, code)
		}
		if last.Round != i {
			t.Fatalf("round index = %d, want %d", last.Round, i)
		}
		if len(last.Outcomes) != 4 {
			t.Fatalf("round %d: %d outcomes, want 4", i, len(last.Outcomes))
		}
	}
	if last.Benefit <= 0 || last.Utility == 0 {
		t.Errorf("round 2 accounting looks dead: benefit=%v utility=%v", last.Benefit, last.Utility)
	}

	var info SessionInfo
	if code := e.do(t, "GET", "/v1/sessions/"+id, nil, &info); code != http.StatusOK {
		t.Fatalf("get session: status %d", code)
	}
	if info.Rounds != 3 || info.Agents != 4 || info.Policy != "dynamic" {
		t.Errorf("info = %+v, want 3 rounds / 4 agents / dynamic", info)
	}
	// Distinct fingerprints designed once, then warm: the cache saw misses
	// in round 0 and only hits after.
	if info.Cache.Misses == 0 {
		t.Errorf("cache misses = 0, want > 0 (round 0 designs)")
	}

	var ledger []RoundJSON
	if code := e.do(t, "GET", "/v1/sessions/"+id+"/rounds", nil, &ledger); code != http.StatusOK {
		t.Fatalf("list rounds: status %d", code)
	}
	if len(ledger) != 3 {
		t.Fatalf("ledger has %d rounds, want 3", len(ledger))
	}
	if ledger[2].Utility != last.Utility {
		t.Errorf("ledger round 2 utility %v != advance response %v", ledger[2].Utility, last.Utility)
	}
}

func TestRoundIncludesContracts(t *testing.T) {
	e := newTestServer(t, Config{})
	id := e.createSession(t)
	var round RoundJSON
	req := AdvanceRoundRequest{IncludeContracts: true}
	if code := e.do(t, "POST", "/v1/sessions/"+id+"/rounds", &req, &round); code != http.StatusOK {
		t.Fatalf("round: status %d", code)
	}
	if len(round.Contracts) != 4 {
		t.Fatalf("%d contracts, want 4", len(round.Contracts))
	}
	if round.Contracts["h1"] == nil {
		t.Error("no contract for h1")
	}
}

// TestCreateSessionRejectsBadPayloads pins the answer to each payload the
// request check, a population check or the policy rejects — a 400 and its
// error text — so validating the population once, in engine.New, answers
// exactly as validating it while it was built did; a bad population
// outranks a bad policy.
func TestCreateSessionRejectsBadPayloads(t *testing.T) {
	e := newTestServer(t, Config{})
	tests := []struct {
		name string
		mut  func(*CreateSessionRequest)
		want string
	}{
		{"neither route", func(r *CreateSessionRequest) { r.Agents = nil },
			`agents must be set: server: invalid request`},
		{"unknown policy", func(r *CreateSessionRequest) { r.Policy = "oracle" },
			`unknown policy "oracle" (want dynamic, exclude, or fixed): server: invalid request`},
		{"unknown class", func(r *CreateSessionRequest) { r.Agents[0].Class = "neutral" },
			`unknown class "neutral" (want honest, malicious, or community): server: invalid request`},
		{"duplicate agent ID", func(r *CreateSessionRequest) { r.Agents[1].ID = "h1" },
			`duplicate agent "h1": engine: invalid population: server: invalid request`},
		{"empty agent ID", func(r *CreateSessionRequest) { r.Agents[0].ID = "" },
			`agent with empty ID: engine: invalid population: server: invalid request`},
		{"zero delta", func(r *CreateSessionRequest) { r.Delta = 0 },
			`delta=0 must be positive and finite: server: invalid request`},
		{"negative mu", func(r *CreateSessionRequest) { r.Mu = -1 },
			`mu=-1 must be finite and >= 0: server: invalid request`},
		{"fixed without amount", func(r *CreateSessionRequest) { r.Policy = "fixed" },
			`fixed policy needs amount > 0, got 0: server: invalid request`},
		{"bad psi", func(r *CreateSessionRequest) { r.Agents[0].Psi.R2 = 1 },
			`agent "h1": r2=1: effort: quadratic is not strictly concave (need r2 < 0): server: invalid request`},
		{"negative beta", func(r *CreateSessionRequest) { r.Agents[2].Beta = -1 },
			`agent "m1": beta=-1 must be positive: worker: invalid agent: server: invalid request`},
		{"malice above 1", func(r *CreateSessionRequest) { r.Agents[2].Malice = 1.5 },
			`agent "m1" malice probability=1.5: engine: invalid population: server: invalid request`},
		{"bad psi and fixed without amount", func(r *CreateSessionRequest) { r.Agents[0].Psi.R2 = 1; r.Policy = "fixed" },
			`agent "h1": r2=1: effort: quadratic is not strictly concave (need r2 < 0): server: invalid request`},
		{"duplicate and fixed without amount", func(r *CreateSessionRequest) { r.Agents[1].ID = "h1"; r.Policy = "fixed" },
			`duplicate agent "h1": engine: invalid population: server: invalid request`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			req := testCreateReq()
			tt.mut(&req)
			body, err := json.Marshal(&req)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := e.ts.Client().Post(e.ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var got errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || got.Error != tt.want {
				t.Errorf("answered %d %q, want 400 %q", resp.StatusCode, got.Error, tt.want)
			}
		})
	}
}

func TestUnknownSession404(t *testing.T) {
	e := newTestServer(t, Config{})
	for _, p := range []string{"/v1/sessions/nope", "/v1/sessions/nope/rounds"} {
		if code := e.do(t, "GET", p, nil, nil); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", p, code)
		}
	}
	if code := e.do(t, "POST", "/v1/sessions/nope/rounds", nil, nil); code != http.StatusNotFound {
		t.Errorf("advance on unknown session = %d, want 404", code)
	}
}

func TestStrictDecoding(t *testing.T) {
	e := newTestServer(t, Config{})
	id := e.createSession(t)
	rounds := "/v1/sessions/" + id + "/rounds"
	for name, tt := range map[string]struct{ path, body string }{
		"unknown field": {rounds, `{"rounds": 5}`},
		"trailing data": {rounds, `{} {}`},
		"not JSON":      {rounds, `<xml/>`},
		// The synthetic create route is gone: scale is an unknown field.
		"scale": {"/v1/sessions", `{"scale":"small","seed":7}`},
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(e.ts.URL+tt.path, "application/json", strings.NewReader(tt.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", resp.StatusCode)
			}
		})
	}
}

func TestDriftMutatesAndRejects(t *testing.T) {
	e := newTestServer(t, Config{})
	id := e.createSession(t)

	// A weight change must be visible in the next round's accounting.
	var before, after RoundJSON
	if code := e.do(t, "POST", "/v1/sessions/"+id+"/rounds", nil, &before); code != http.StatusOK {
		t.Fatalf("round: status %d", code)
	}
	var dr DriftResponse
	drift := DriftRequest{Weights: map[string]float64{"h1": 2, "h2": 2}}
	if code := e.do(t, "POST", "/v1/sessions/"+id+"/drift", &drift, &dr); code != http.StatusOK {
		t.Fatalf("drift: status %d", code)
	}
	if dr.Updated != 2 {
		t.Errorf("updated = %d, want 2", dr.Updated)
	}
	if code := e.do(t, "POST", "/v1/sessions/"+id+"/rounds", nil, &after); code != http.StatusOK {
		t.Fatalf("round: status %d", code)
	}
	if after.Benefit <= before.Benefit {
		t.Errorf("doubled weights did not raise benefit: %v -> %v", before.Benefit, after.Benefit)
	}

	// Invalid drifts reject wholesale and leave the session untouched.
	for name, bad := range map[string]DriftRequest{
		"empty":         {},
		"unknown agent": {Weights: map[string]float64{"ghost": 1}},
		"bad beta":      {Beta: map[string]float64{"h1": -1}},
		"honest omega":  {Omega: map[string]float64{"h1": 0.5}},
		"bad psi":       {Psi: map[string]PsiSpec{"h1": {R2: 1, R1: 1}}},
	} {
		t.Run(name, func(t *testing.T) {
			if code := e.do(t, "POST", "/v1/sessions/"+id+"/drift", &bad, nil); code != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", code)
			}
		})
	}
	// The failed drifts must not have perturbed the ledger's trajectory.
	var again RoundJSON
	if code := e.do(t, "POST", "/v1/sessions/"+id+"/rounds", nil, &again); code != http.StatusOK {
		t.Fatalf("round: status %d", code)
	}
	if again.Benefit != after.Benefit {
		t.Errorf("rejected drifts changed the round: benefit %v -> %v", after.Benefit, again.Benefit)
	}
}

// TestSparseDriftScopedLedger pins the drift route's touched-set
// declaration end to end: a one-agent drift reports
// touched=1 and perturbs exactly that agent's next ledger row, and a
// rejected drift — reverted before any Touch — leaves both the
// population and the drift scope untouched, so the following round is
// identical row for row.
func TestSparseDriftScopedLedger(t *testing.T) {
	e := newTestServer(t, Config{})
	req := testCreateReq()
	var created CreateSessionResponse
	if code := e.do(t, "POST", "/v1/sessions", &req, &created); code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	id := created.ID

	advance := func() RoundJSON {
		t.Helper()
		var out RoundJSON
		areq := AdvanceRoundRequest{IncludeOutcomes: true}
		if code := e.do(t, "POST", "/v1/sessions/"+id+"/rounds", &areq, &out); code != http.StatusOK {
			t.Fatalf("round: status %d", code)
		}
		return out
	}
	rowByID := func(r RoundJSON, agent string) OutcomeJSON {
		t.Helper()
		for _, oc := range r.Outcomes {
			if oc.AgentID == agent {
				return oc
			}
		}
		t.Fatalf("no outcome row for %s", agent)
		return OutcomeJSON{}
	}

	before := advance()

	var dr DriftResponse
	drift := DriftRequest{Weights: map[string]float64{"h1": 1.3}}
	if code := e.do(t, "POST", "/v1/sessions/"+id+"/drift", &drift, &dr); code != http.StatusOK {
		t.Fatalf("drift: status %d", code)
	}
	if dr.Touched != 1 || dr.Updated != 1 {
		t.Errorf("drift response = %+v, want touched=1 updated=1", dr)
	}

	after := advance()
	for _, oc := range before.Outcomes {
		got := rowByID(after, oc.AgentID)
		if oc.AgentID == "h1" {
			if got == oc {
				t.Errorf("touched agent h1's row did not change after weight drift")
			}
			if got.Weight != 1.3 {
				t.Errorf("h1 weight = %v, want 1.3", got.Weight)
			}
			continue
		}
		if got != oc {
			t.Errorf("untouched agent %s's row changed: %+v -> %+v", oc.AgentID, oc, got)
		}
	}

	// A rejected drift reverts its mutations before declaring any scope:
	// the valid h2 entry must not leak into the population or the
	// touched-set alongside the unknown-agent rejection.
	bad := DriftRequest{Weights: map[string]float64{"h2": 3, "ghost": 1}}
	if code := e.do(t, "POST", "/v1/sessions/"+id+"/drift", &bad, nil); code != http.StatusBadRequest {
		t.Fatalf("bad drift: status %d, want 400", code)
	}
	again := advance()
	for _, oc := range after.Outcomes {
		if got := rowByID(again, oc.AgentID); got != oc {
			t.Errorf("rejected drift perturbed %s's row: %+v -> %+v", oc.AgentID, oc, got)
		}
	}
}

// TestSyntheticSession serves a synthpop pipeline population, built
// client-side and posted as explicit agents, and requires its ledger to
// be byte-identical to a bare engine over the pipeline's own population:
// AgentSpecOf's wire form loses nothing of a fitted agent.
func TestSyntheticSession(t *testing.T) {
	req, pop := pipelineRequest(t, synth.SmallScale(7), 10)
	e := newTestServer(t, Config{})
	var resp CreateSessionResponse
	if code := e.do(t, "POST", "/v1/sessions", &req, &resp); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if resp.Agents != len(pop.Agents) {
		t.Fatalf("session has %d agents, the pipeline built %d", resp.Agents, len(pop.Agents))
	}
	const rounds = 5
	advanceRounds(t, e, resp.ID, rounds)
	ledger, err := engine.RunLedger(context.Background(), pop, engine.Config{
		Policy: &platform.DynamicPolicy{},
		Rounds: rounds,
		Cache:  engine.NewCache(),
		Memo:   engine.NewRespondMemo(),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]RoundJSON, len(ledger))
	for i, rd := range ledger {
		want[i] = roundJSON(rd, true)
	}
	ref, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.TrimSpace(ledgerBytes(t, e, resp.ID)); string(got) != string(ref) {
		t.Errorf("served ledger differs from bare engine over the pipeline population:\n got %s\nwant %s", got, ref)
	}
}

func TestMaxSessions(t *testing.T) {
	e := newTestServer(t, Config{MaxSessions: 2})
	e.createSession(t)
	e.createSession(t)
	req := testCreateReq()
	if code := e.do(t, "POST", "/v1/sessions", &req, nil); code != http.StatusTooManyRequests {
		t.Errorf("third session: status %d, want 429", code)
	}
}

func TestHealthz(t *testing.T) {
	e := newTestServer(t, Config{})
	if code := e.do(t, "GET", "/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, err := e.ts.Client().Get(e.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

func TestRouteMetricsRecorded(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := newTestServer(t, Config{Metrics: reg})
	id := e.createSession(t)
	if code := e.do(t, "POST", "/v1/sessions/"+id+"/rounds", nil, nil); code != http.StatusOK {
		t.Fatalf("round: status %d", code)
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		telemetry.HTTPMetricPrefix + "sessions_create" + telemetry.HTTPSuffixRequests,
		telemetry.HTTPMetricPrefix + "rounds_advance" + telemetry.HTTPSuffix2xx,
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s = 0, want > 0", name)
		}
	}
	if snap.Counters[metricRounds] != 1 {
		t.Errorf("%s = %d, want 1", metricRounds, snap.Counters[metricRounds])
	}
	if snap.Gauges[metricSessions] != 1 {
		t.Errorf("%s = %v, want 1", metricSessions, snap.Gauges[metricSessions])
	}
}

// TestStructuralDriftRoute pins the drift route's add/remove payloads end
// to end: a join appears in the next round with its
// own ledger row while every pre-existing row stays byte-identical, a
// leave removes exactly its row, rejected structural drifts (unknown
// remove, duplicate add, an ID added twice, add∩remove overlap, invalid
// joiner, malice outside [0, 1], removing every agent, a ψ drift that
// fails validation next to a join or a leave) revert wholesale, and the
// joined/left counts come back in the response.
func TestStructuralDriftRoute(t *testing.T) {
	e := newTestServer(t, Config{})
	req := testCreateReq()
	var created CreateSessionResponse
	if code := e.do(t, "POST", "/v1/sessions", &req, &created); code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	id := created.ID

	advance := func() RoundJSON {
		t.Helper()
		var out RoundJSON
		areq := AdvanceRoundRequest{IncludeOutcomes: true}
		if code := e.do(t, "POST", "/v1/sessions/"+id+"/rounds", &areq, &out); code != http.StatusOK {
			t.Fatalf("round: status %d", code)
		}
		return out
	}
	rows := func(r RoundJSON) map[string]OutcomeJSON {
		m := make(map[string]OutcomeJSON, len(r.Outcomes))
		for _, oc := range r.Outcomes {
			m[oc.AgentID] = oc
		}
		return m
	}

	before := advance()

	// Join: a fresh honest agent cloning h1's parameters.
	psi := PsiSpec{R2: -0.25, R1: 2, R0: 0}
	var dr DriftResponse
	join := DriftRequest{Add: []AgentSpec{{ID: "zz1", Class: "honest", Psi: psi, Beta: 1, Weight: 1}}}
	if code := e.do(t, "POST", "/v1/sessions/"+id+"/drift", &join, &dr); code != http.StatusOK {
		t.Fatalf("join drift: status %d", code)
	}
	if dr.Joined != 1 || dr.Left != 0 || dr.Updated != 0 {
		t.Errorf("join response = %+v, want joined=1 left=0 updated=0", dr)
	}
	joined := advance()
	if len(joined.Outcomes) != len(before.Outcomes)+1 {
		t.Fatalf("joined round has %d rows, want %d", len(joined.Outcomes), len(before.Outcomes)+1)
	}
	jr := rows(joined)
	if _, ok := jr["zz1"]; !ok {
		t.Errorf("no ledger row for joined agent zz1")
	}
	for agent, oc := range rows(before) {
		if got := jr[agent]; got != oc {
			t.Errorf("join perturbed %s's row: %+v -> %+v", agent, oc, got)
		}
	}

	// Leave: the joiner departs again; everyone else byte-identical.
	dr = DriftResponse{} // joined/left are omitempty; reset between decodes
	leave := DriftRequest{Remove: []string{"zz1"}}
	if code := e.do(t, "POST", "/v1/sessions/"+id+"/drift", &leave, &dr); code != http.StatusOK {
		t.Fatalf("leave drift: status %d", code)
	}
	if dr.Left != 1 || dr.Joined != 0 {
		t.Errorf("leave response = %+v, want left=1 joined=0", dr)
	}
	left := advance()
	lr := rows(left)
	if _, ok := lr["zz1"]; ok {
		t.Errorf("left agent zz1 still has a ledger row")
	}
	for agent, oc := range rows(before) {
		if got := lr[agent]; got != oc {
			t.Errorf("leave perturbed %s's row: %+v -> %+v", agent, oc, got)
		}
	}

	// Structural rejections revert wholesale.
	for name, bad := range map[string]DriftRequest{
		"unknown remove":     {Remove: []string{"ghost"}},
		"duplicate add":      {Add: []AgentSpec{{ID: "h1", Class: "honest", Psi: psi, Beta: 1, Weight: 1}}},
		"add and remove":     {Add: []AgentSpec{{ID: "x1", Class: "honest", Psi: psi, Beta: 1, Weight: 1}}, Remove: []string{"x1"}},
		"invalid joiner":     {Add: []AgentSpec{{ID: "x2", Class: "honest", Psi: PsiSpec{R2: 1, R1: 1}, Beta: 1, Weight: 1}}},
		"empty add id":       {Add: []AgentSpec{{Class: "honest", Psi: psi, Beta: 1, Weight: 1}}},
		"unknown class":      {Add: []AgentSpec{{ID: "x3", Class: "neutral", Psi: psi, Beta: 1, Weight: 1}}},
		"empty remove id":    {Remove: []string{""}},
		"remove every agent": {Remove: []string{"h1", "h2", "m1", "c1"}},
		"malice above one":   {Add: []AgentSpec{{ID: "x4", Class: "malicious", Psi: psi, Beta: 1, Omega: 0.5, Weight: 1, Malice: 1.5}}},
		"negative malice":    {Add: []AgentSpec{{ID: "x5", Class: "malicious", Psi: psi, Beta: 1, Omega: 0.5, Weight: 1, Malice: -0.1}}},
		"same id added twice": {Add: []AgentSpec{
			{ID: "x6", Class: "honest", Psi: psi, Beta: 1, Weight: 1},
			{ID: "x6", Class: "honest", Psi: psi, Beta: 1, Weight: 1},
		}},
		"join with bad psi drift": {Add: []AgentSpec{{ID: "x7", Class: "honest", Psi: psi, Beta: 1, Weight: 1}}, Psi: map[string]PsiSpec{"x7": {R2: 1, R1: 1}}},
		"remove with bad psi":     {Remove: []string{"h2"}, Psi: map[string]PsiSpec{"h1": {R2: 1, R1: 1}}},
	} {
		t.Run(name, func(t *testing.T) {
			if code := e.do(t, "POST", "/v1/sessions/"+id+"/drift", &bad, nil); code != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", code)
			}
		})
	}
	again := advance()
	ar := rows(again)
	if len(again.Outcomes) != len(before.Outcomes) {
		t.Fatalf("rejected drifts changed the population: %d rows, want %d", len(again.Outcomes), len(before.Outcomes))
	}
	for agent, oc := range rows(before) {
		if got := ar[agent]; got != oc {
			t.Errorf("rejected drifts perturbed %s's row: %+v -> %+v", agent, oc, got)
		}
	}
}

// TestCreateBodyRead pins how a create body is read: a body without a
// Content-Length (chunked) creates the session like a sized one, and a
// body past maxBodyBytes is refused with 400 whatever length it declares.
func TestCreateBodyRead(t *testing.T) {
	e := newTestServer(t, Config{})
	body, err := json.Marshal(testCreateReq())
	if err != nil {
		t.Fatal(err)
	}
	post := func(r io.Reader, length int64) int {
		t.Helper()
		req, err := http.NewRequest("POST", e.ts.URL+"/v1/sessions", r)
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = length
		resp, err := e.ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(io.MultiReader(bytes.NewReader(body)), -1); code != http.StatusCreated {
		t.Errorf("chunked create: status %d, want 201", code)
	}
	big := append(bytes.Repeat([]byte(" "), maxBodyBytes), body...)
	if code := post(bytes.NewReader(big), int64(len(big))); code != http.StatusBadRequest {
		t.Errorf("create past maxBodyBytes: status %d, want 400", code)
	}
	if code := post(io.MultiReader(bytes.NewReader(big)), -1); code != http.StatusBadRequest {
		t.Errorf("chunked create past maxBodyBytes: status %d, want 400", code)
	}
}

// TestSnapshotPopulationErrors pins what recovery reports for a snapshot
// whose population engine.New rejects — alone, and with a policy
// buildPolicy rejects, where the population's error wins.
func TestSnapshotPopulationErrors(t *testing.T) {
	srv := New(Config{})
	for _, policy := range []string{"", "fixed"} {
		snap := sessionSnapshot{Version: snapshotVersion, Policy: policy, M: 10, Delta: 0.2, Mu: 1, Agents: testAgents()}
		snap.Agents[1].ID = "h1"
		_, err := srv.sessionFromSnapshot(&snap)
		want := `snapshot population: duplicate agent "h1": engine: invalid population`
		if err == nil || err.Error() != want {
			t.Errorf("policy %q: sessionFromSnapshot = %v, want %s", policy, err, want)
		}
	}
}
