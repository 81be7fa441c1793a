package server

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"dyncontract/internal/contract"
)

// designByID posts a design query by agent_id and returns the status and,
// on 200, the contract.
func designByID(t *testing.T, e *testServer, sid, agent string) (int, *contract.PiecewiseLinear) {
	t.Helper()
	var resp DesignQueryResponse
	q := DesignQueryRequest{AgentID: agent}
	code := e.do(t, "POST", "/v1/sessions/"+sid+"/design", &q, &resp)
	if code == http.StatusOK && (resp.AgentID != agent || resp.Contract == nil) {
		t.Fatalf("design %s: bad response %+v", agent, resp)
	}
	return code, resp.Contract
}

// designInline posts a design query for an inline agent spec — the
// contract a session member with the same parameters and weight must get.
func designInline(t *testing.T, e *testServer, sid string, spec AgentSpec) *contract.PiecewiseLinear {
	t.Helper()
	var resp DesignQueryResponse
	q := DesignQueryRequest{Agent: &spec}
	if code := e.do(t, "POST", "/v1/sessions/"+sid+"/design", &q, &resp); code != http.StatusOK {
		t.Fatalf("inline design %s: status %d", spec.ID, code)
	}
	return resp.Contract
}

// wantDesign checks that a design by agent_id answers 200 with the
// contract an inline query for spec gets.
func wantDesign(t *testing.T, e *testServer, sid string, spec AgentSpec) {
	t.Helper()
	code, got := designByID(t, e, sid, spec.ID)
	if code != http.StatusOK {
		t.Fatalf("design %s: status %d, want 200", spec.ID, code)
	}
	if want := designInline(t, e, sid, spec); !got.Equal(want) {
		t.Errorf("design %s by id = %+v, want %+v", spec.ID, got, want)
	}
}

// specByID returns the canonical test agent with the given ID.
func specByID(t *testing.T, id string) AgentSpec {
	t.Helper()
	for _, a := range testAgents() {
		if a.ID == id {
			return a
		}
	}
	t.Fatalf("no test agent %s", id)
	return AgentSpec{}
}

func postDrift(t *testing.T, e *testServer, sid string, req DriftRequest, want int) {
	t.Helper()
	if code := e.do(t, "POST", "/v1/sessions/"+sid+"/drift", &req, nil); code != want {
		t.Fatalf("drift %+v: status %d, want %d", req, code, want)
	}
}

// TestDesignByIDJoinedAgent designs by agent_id for an agent a drift
// joined with no round since, then for one joined and removed again.
func TestDesignByIDJoinedAgent(t *testing.T) {
	e := newTestServer(t, Config{})
	id := e.createSession(t)
	advanceRounds(t, e, id, 1)

	joiner := AgentSpec{ID: "zz1", Class: "honest", Psi: PsiSpec{R2: -0.25, R1: 2}, Beta: 1.3, Weight: 0.7}
	postDrift(t, e, id, DriftRequest{Add: []AgentSpec{joiner}}, http.StatusOK)
	wantDesign(t, e, id, joiner)

	gone := AgentSpec{ID: "zz2", Class: "malicious", Psi: PsiSpec{R2: -0.25, R1: 2}, Beta: 1, Omega: 0.4, Weight: 0.9}
	postDrift(t, e, id, DriftRequest{Add: []AgentSpec{gone}}, http.StatusOK)
	postDrift(t, e, id, DriftRequest{Remove: []string{"zz2"}}, http.StatusOK)
	if code, _ := designByID(t, e, id, "zz2"); code != http.StatusBadRequest {
		t.Errorf("design for a removed agent: status %d, want 400", code)
	}
	advanceRounds(t, e, id, 1)
	if code, _ := designByID(t, e, id, "zz2"); code != http.StatusBadRequest {
		t.Errorf("design for a removed agent after a round: status %d, want 400", code)
	}
	wantDesign(t, e, id, joiner)
}

// TestDesignByIDSwapMovedAgent pins design-by-ID for the agent a remove
// swap-moves into the vacated position, before and after a rejected drift
// whose own remove is reverted by reversing the swap.
func TestDesignByIDSwapMovedAgent(t *testing.T) {
	e := newTestServer(t, Config{})
	id := e.createSession(t)
	advanceRounds(t, e, id, 1)

	// The population is [h1 h2 m1 c1]; removing h1 moves c1 to position 0.
	postDrift(t, e, id, DriftRequest{Remove: []string{"h1"}}, http.StatusOK)
	if code, _ := designByID(t, e, id, "h1"); code != http.StatusBadRequest {
		t.Errorf("design for removed h1: status %d, want 400", code)
	}
	for _, a := range []string{"c1", "h2", "m1"} {
		wantDesign(t, e, id, specByID(t, a))
	}

	// Now [c1 h2 m1]: removing h2 moves m1 to position 1, and the unknown
	// weight rejects the drift, so the undo must move m1 back.
	postDrift(t, e, id, DriftRequest{Remove: []string{"h2"}, Weights: map[string]float64{"ghost": 1}}, http.StatusBadRequest)
	for _, a := range []string{"m1", "h2", "c1"} {
		wantDesign(t, e, id, specByID(t, a))
	}
	advanceRounds(t, e, id, 1)
	for _, a := range []string{"m1", "h2", "c1"} {
		wantDesign(t, e, id, specByID(t, a))
	}
	var info SessionInfo
	if code := e.do(t, "GET", "/v1/sessions/"+id, nil, &info); code != http.StatusOK || info.Agents != 3 {
		t.Errorf("session info: status %d, %d agents, want 200 and 3", code, info.Agents)
	}
}

// TestDesignByIDRecoveredAcrossSnapshot designs by agent_id on a session
// recovered from a journal that crosses a snapshot, for agents that
// joined before the snapshot and after it, and for agents a remove moved.
func TestDesignByIDRecoveredAcrossSnapshot(t *testing.T) {
	dir := t.TempDir()
	e1 := newJournaledServer(t, dir, Config{})
	id := e1.createSession(t)
	psi := PsiSpec{R2: -0.25, R1: 2}
	early := AgentSpec{ID: "early", Class: "honest", Psi: psi, Beta: 1.1, Weight: 0.6}
	late := AgentSpec{ID: "late", Class: "community", Psi: psi, Beta: 1, Omega: 0.2, Size: 2, Weight: 0.4}

	postDrift(t, e1, id, DriftRequest{Add: []AgentSpec{early}, Remove: []string{"h2"}}, http.StatusOK)
	advanceRounds(t, e1, id, 2)
	if code := e1.do(t, "POST", "/v1/sessions/"+id+"/snapshot", nil, nil); code != http.StatusOK {
		t.Fatalf("snapshot: status %d", code)
	}
	postDrift(t, e1, id, DriftRequest{Add: []AgentSpec{late}, Remove: []string{"h1"}}, http.StatusOK)
	advanceRounds(t, e1, id, 1)
	ref := ledgerBytes(t, e1, id)

	e2, stats := recoverServer(t, crashImage(t, dir), Config{})
	if stats.Sessions != 1 || stats.Failed != 0 {
		t.Fatalf("recovery stats = %+v, want 1 session, 0 failed", stats)
	}
	if got := ledgerBytes(t, e2, id); string(got) != string(ref) {
		t.Fatalf("recovered ledger differs:\n got %s\nwant %s", got, ref)
	}
	for _, e := range []*testServer{e1, e2} {
		for _, spec := range []AgentSpec{early, late, specByID(t, "m1"), specByID(t, "c1")} {
			wantDesign(t, e, id, spec)
		}
		for _, gone := range []string{"h1", "h2"} {
			if code, _ := designByID(t, e, id, gone); code != http.StatusBadRequest {
				t.Errorf("design for removed %s: status %d, want 400", gone, code)
			}
		}
	}
}

// runDriftCmd submits a drift through the session's writer queue,
// skipping the handler's payload checks, as journal replay does.
func runDriftCmd(t *testing.T, e *testServer, sid string, req DriftRequest) cmdReply {
	t.Helper()
	e.srv.mu.Lock()
	sess := e.srv.sessions[sid]
	e.srv.mu.Unlock()
	cmd := command{ctx: context.Background(), kind: cmdDrift, drift: &req, reply: make(chan cmdReply, 1)}
	if code, err := sess.submit(cmd); err != nil {
		t.Fatalf("submit: %d %v", code, err)
	}
	return <-cmd.reply
}

// TestDriftScopedValidationRejects drives drifts the wire format cannot
// carry (NaN) or the handler would catch first straight into the writer:
// the scoped validation must reject each with 400 and revert it, so the
// next round equals the one before the attempts.
func TestDriftScopedValidationRejects(t *testing.T) {
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
	before := advance()

	psi := PsiSpec{R2: -0.25, R1: 2}
	nan := math.NaN()
	for name, bad := range map[string]DriftRequest{
		"NaN weight on add":      {Add: []AgentSpec{{ID: "x1", Class: "honest", Psi: psi, Beta: 1, Weight: nan}}},
		"NaN weight drift":       {Weights: map[string]float64{"h2": nan}},
		"infinite weight drift":  {Weights: map[string]float64{"m1": math.Inf(1)}},
		"NaN malice on add":      {Add: []AgentSpec{{ID: "x2", Class: "honest", Psi: psi, Beta: 1, Weight: 1, Malice: nan}}},
		"empty add id":           {Add: []AgentSpec{{Class: "honest", Psi: psi, Beta: 1, Weight: 1}}},
		"remove every agent":     {Remove: []string{"h1", "h2", "m1", "c1"}},
		"add after bad psi":      {Add: []AgentSpec{{ID: "x3", Class: "honest", Psi: psi, Beta: 1, Weight: 1}}, Psi: map[string]PsiSpec{"c1": {R2: 0.5, R1: 1}}},
		"same id added twice":    {Add: []AgentSpec{{ID: "x4", Class: "honest", Psi: psi, Beta: 1, Weight: 1}, {ID: "x4", Class: "honest", Psi: psi, Beta: 1, Weight: 1}}},
		"remove then bad weight": {Remove: []string{"h1"}, Weights: map[string]float64{"c1": nan}},
	} {
		t.Run(name, func(t *testing.T) {
			rep := runDriftCmd(t, e, id, bad)
			if rep.err == nil || rep.code != http.StatusBadRequest {
				t.Errorf("reply = %d %v, want 400", rep.code, rep.err)
			}
		})
	}
	again := advance()
	if len(again.Outcomes) != len(before.Outcomes) {
		t.Fatalf("rejected drifts changed the population: %d rows, want %d", len(again.Outcomes), len(before.Outcomes))
	}
	for i, oc := range before.Outcomes {
		if again.Outcomes[i] != oc {
			t.Errorf("rejected drifts perturbed row %d: %+v -> %+v", i, oc, again.Outcomes[i])
		}
	}
	for _, a := range testAgents() {
		wantDesign(t, e, id, a)
	}
}

// TestDesignByIDDuringChurn reads the population index from design
// queries on several goroutines while one client joins, removes, drifts
// and advances rounds — the engine and the handlers read the index
// concurrently, so this is the race detector's pin. Agents that stay in
// the session must answer 200 throughout.
func TestDesignByIDDuringChurn(t *testing.T) {
	e := newTestServer(t, Config{})
	id := e.createSession(t)
	psi := PsiSpec{R2: -0.25, R1: 2}
	done := make(chan struct{})
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			agent := []string{"h1", "m1", "c1", "h2"}[g]
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				// Not designByID: t.Fatal belongs to the test's goroutine.
				body := fmt.Sprintf(`{"agent_id":%q}`, agent)
				resp, err := e.ts.Client().Post(e.ts.URL+"/v1/sessions/"+id+"/design", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("design %s: status %d", agent, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		add := AgentSpec{ID: fmt.Sprintf("churn%02d", i), Class: "honest", Psi: psi, Beta: 1, Weight: 1}
		postDrift(t, e, id, DriftRequest{Add: []AgentSpec{add}, Weights: map[string]float64{"h1": 1 + float64(i%2)/10}}, http.StatusOK)
		if i > 0 {
			postDrift(t, e, id, DriftRequest{Remove: []string{fmt.Sprintf("churn%02d", i-1)}}, http.StatusOK)
		}
		advanceRounds(t, e, id, 1)
	}
	close(done)
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
