package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"dyncontract/internal/core"
	"dyncontract/internal/engine"
)

// TestDesignQueryMatchesCoreDesign pins the serving path to the math: a
// design query for a session agent returns exactly the contract
// core.ReferenceDesign produces for that agent's parameters.
func TestDesignQueryMatchesCoreDesign(t *testing.T) {
	e := newTestServer(t, Config{})
	id := e.createSession(t)
	var resp DesignQueryResponse
	q := DesignQueryRequest{AgentID: "m1"}
	if code := e.do(t, "POST", "/v1/sessions/"+id+"/design", &q, &resp); code != http.StatusOK {
		t.Fatalf("design: status %d", code)
	}
	if resp.AgentID != "m1" || resp.Contract == nil {
		t.Fatalf("bad response: %+v", resp)
	}

	req := testCreateReq()
	pop, err := buildPopulation(&req)
	if err != nil {
		t.Fatal(err)
	}
	var want *core.Result
	for _, a := range pop.Agents {
		if a.ID == "m1" {
			want, err = core.ReferenceDesign(a, core.Config{Part: pop.Part, Mu: pop.Mu, W: pop.Weights[a.ID]})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if !resp.Contract.Equal(want.Contract) {
		t.Errorf("served contract differs from core.ReferenceDesign:\n got %+v\nwant %+v", resp.Contract, want.Contract)
	}
}

// TestDesignQueryInlineAgent designs for an agent that is not a session
// member, and rejects invalid inline agents.
func TestDesignQueryInlineAgent(t *testing.T) {
	e := newTestServer(t, Config{})
	id := e.createSession(t)
	q := DesignQueryRequest{Agent: &AgentSpec{
		ID: "visitor", Class: "honest", Psi: PsiSpec{R2: -0.25, R1: 2}, Beta: 2, Weight: 1.5,
	}}
	var resp DesignQueryResponse
	if code := e.do(t, "POST", "/v1/sessions/"+id+"/design", &q, &resp); code != http.StatusOK {
		t.Fatalf("inline design: status %d", code)
	}
	if resp.Contract == nil {
		t.Fatal("no contract")
	}

	for name, bad := range map[string]DesignQueryRequest{
		"no form":    {},
		"both forms": {AgentID: "h1", Agent: q.Agent},
		"unknown id": {AgentID: "ghost"},
		"bad psi":    {Agent: &AgentSpec{ID: "x", Class: "honest", Psi: PsiSpec{R2: 1, R1: 1}, Beta: 1, Weight: 1}},
		"bad class":  {Agent: &AgentSpec{ID: "x", Class: "chaotic", Psi: PsiSpec{R2: -0.25, R1: 2}, Beta: 1, Weight: 1}},
	} {
		t.Run(name, func(t *testing.T) {
			if code := e.do(t, "POST", "/v1/sessions/"+id+"/design", &bad, nil); code != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", code)
			}
		})
	}
}

// heldCtx holds the first Err call on it until gate closes. A design
// under it claims its cold key's menu flight and then, at the solver's
// first cancellation check, holds that flight open: every other query for
// the key awaits it, as it would await a slow cold build.
type heldCtx struct {
	context.Context
	once          sync.Once
	entered, gate chan struct{}
}

func (c *heldCtx) Err() error {
	c.once.Do(func() {
		close(c.entered)
		<-c.gate
	})
	return c.Context.Err()
}

// holdFlight claims agentID's design key in the session's cache, through
// a designer on that cache, and holds the menu flight open until release
// is called (at the latest when the test ends, so a failing test cannot
// leave a handler blocked). It returns once the flight is claimed; landed
// answers when the held build has landed.
func holdFlight(t *testing.T, e *testServer, id, agentID string) (release func(), landed <-chan error) {
	t.Helper()
	sess := e.srv.sessions[id]
	a, w, err := sess.resolveDesign(&DesignQueryRequest{AgentID: agentID})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &heldCtx{Context: context.Background(), entered: make(chan struct{}), gate: make(chan struct{})}
	var open sync.Once
	release = func() { open.Do(func() { close(ctx.gate) }) }
	t.Cleanup(release)
	// Parallelism 1 runs the build on the holder's goroutine, behind the
	// solver's first check of ctx.
	d := &engine.Designer{Cache: sess.designer.Cache, Parallelism: 1}
	done := make(chan error, 1)
	go func() {
		_, err := d.Design(ctx, sess.pop.Part, sess.pop.Mu, a, w)
		done <- err
	}()
	select {
	case <-ctx.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the held design did not reach its build within 10s")
	}
	return release, done
}

// designResult is one design query's status, or the transport error that
// kept it from answering.
type designResult struct {
	code int
	err  error
}

// designAsync posts a design query for agentID from its own goroutine.
func designAsync(e *testServer, id, agentID string) <-chan designResult {
	out := make(chan designResult, 1)
	go func() {
		body, err := json.Marshal(DesignQueryRequest{AgentID: agentID})
		if err != nil {
			out <- designResult{err: err}
			return
		}
		resp, err := e.ts.Client().Post(e.ts.URL+"/v1/sessions/"+id+"/design", "application/json", bytes.NewReader(body))
		if err != nil {
			out <- designResult{err: err}
			return
		}
		resp.Body.Close()
		out <- designResult{code: resp.StatusCode}
	}()
	return out
}

// awaitDesign waits for an async design query's answer.
func awaitDesign(t *testing.T, ch <-chan designResult) designResult {
	t.Helper()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("design query: %v", r.err)
		}
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("design query did not answer within 10s")
		return designResult{}
	}
}

// TestLoneDesignQueryDoesNotLinger pins that the deprecated BatchWindow is
// ignored: a lone query answers at once, well inside a request timeout far
// shorter than the configured window.
func TestLoneDesignQueryDoesNotLinger(t *testing.T) {
	e := newTestServer(t, Config{BatchWindow: time.Minute, RequestTimeout: 3 * time.Second})
	id := e.createSession(t)
	var resp DesignQueryResponse
	q := DesignQueryRequest{AgentID: "h1"}
	if code := e.do(t, "POST", "/v1/sessions/"+id+"/design", &q, &resp); code != http.StatusOK {
		t.Fatalf("design: status %d", code)
	}
	if resp.Contract == nil {
		t.Error("no contract")
	}
}

// TestDesignQueryDeadlineBehindHeldFlight pins the handler's deadline: a
// query awaiting a cold build of its key that outlasts RequestTimeout
// answers 504 at its deadline, not when the build lands. A query for
// another key is not held behind it, and once the build lands the held
// key's next query answers 200.
func TestDesignQueryDeadlineBehindHeldFlight(t *testing.T) {
	e := newTestServer(t, Config{RequestTimeout: 200 * time.Millisecond})
	id := e.createSession(t)
	release, landed := holdFlight(t, e, id, "h1")

	if r := awaitDesign(t, designAsync(e, id, "h1")); r.code != http.StatusGatewayTimeout {
		t.Errorf("query awaiting the held build past its deadline: status %d, want 504", r.code)
	}
	if r := awaitDesign(t, designAsync(e, id, "m1")); r.code != http.StatusOK {
		t.Errorf("query for another key while the build is held: status %d, want 200", r.code)
	}
	release()
	if err := <-landed; err != nil {
		t.Fatalf("held build: %v", err)
	}

	var resp DesignQueryResponse
	if code := e.do(t, "POST", "/v1/sessions/"+id+"/design", &DesignQueryRequest{AgentID: "h1"}, &resp); code != http.StatusOK {
		t.Fatalf("design after the held build landed: status %d", code)
	}
	if resp.Contract == nil {
		t.Error("no contract")
	}
}

// TestDesignServedFromWarmCache checks the cache hand-off between the
// round loop and design queries: after one round, a design query for a
// session agent is a pure cache hit (no new misses).
func TestDesignServedFromWarmCache(t *testing.T) {
	e := newTestServer(t, Config{})
	id := e.createSession(t)
	if code := e.do(t, "POST", "/v1/sessions/"+id+"/rounds", nil, nil); code != http.StatusOK {
		t.Fatalf("round: status %d", code)
	}
	var before SessionInfo
	if code := e.do(t, "GET", "/v1/sessions/"+id, nil, &before); code != http.StatusOK {
		t.Fatalf("info: status %d", code)
	}
	q := DesignQueryRequest{AgentID: "h1"}
	if code := e.do(t, "POST", "/v1/sessions/"+id+"/design", &q, nil); code != http.StatusOK {
		t.Fatalf("design: status %d", code)
	}
	var after SessionInfo
	if code := e.do(t, "GET", "/v1/sessions/"+id, nil, &after); code != http.StatusOK {
		t.Fatalf("info: status %d", code)
	}
	if after.Cache.Misses != before.Cache.Misses {
		t.Errorf("warm design query missed the cache: misses %d -> %d", before.Cache.Misses, after.Cache.Misses)
	}
	if after.Cache.Hits <= before.Cache.Hits {
		t.Errorf("warm design query did not hit the cache: hits %d -> %d", before.Cache.Hits, after.Cache.Hits)
	}
}
