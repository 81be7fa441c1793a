package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"dyncontract/internal/core"
	"dyncontract/internal/telemetry"
)

// TestDesignQueryMatchesCoreDesign pins the serving path to the math: a
// design query for a session agent returns exactly the contract
// core.Design produces for that agent's parameters.
func TestDesignQueryMatchesCoreDesign(t *testing.T) {
	e := newTestServer(t, Config{})
	id := e.createSession(t)
	var resp DesignQueryResponse
	q := DesignQueryRequest{AgentID: "m1"}
	if code := e.do(t, "POST", "/v1/sessions/"+id+"/design", &q, &resp); code != http.StatusOK {
		t.Fatalf("design: status %d", code)
	}
	if resp.AgentID != "m1" || resp.Contract == nil || resp.BatchSize < 1 {
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
			want, err = core.Design(a, core.Config{Part: pop.Part, Mu: pop.Mu, W: pop.Weights[a.ID]})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if !resp.Contract.Equal(want.Contract) {
		t.Errorf("served contract differs from core.Design:\n got %+v\nwant %+v", resp.Contract, want.Contract)
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

// holdFirstBatch makes the session's batcher stop inside its first batch.
// held waits until the batcher has taken that batch and returns its size;
// the batch runs when release is called (at the latest when the test
// ends, so a failing test cannot leave a handler blocked). Later batches
// run unheld.
func holdFirstBatch(t *testing.T, e *testServer, id string) (held func() int, release func()) {
	sizes, gate := make(chan int, 1), make(chan struct{})
	var hold, open sync.Once
	release = func() { open.Do(func() { close(gate) }) }
	t.Cleanup(release)
	e.srv.mu.Lock()
	e.srv.sessions[id].batchHook = func(n int) {
		hold.Do(func() {
			sizes <- n
			<-gate
		})
	}
	e.srv.mu.Unlock()
	held = func() int {
		t.Helper()
		select {
		case n := <-sizes:
			return n
		case <-time.After(10 * time.Second):
			t.Fatal("the batcher took no batch within 10s")
			return 0
		}
	}
	return held, release
}

// designResult is one design query's status and reported batch size, or
// the transport error that kept it from answering.
type designResult struct {
	code, batch int
	err         error
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
		defer resp.Body.Close()
		var r DesignQueryResponse
		_ = json.NewDecoder(resp.Body).Decode(&r) // error bodies carry no batch size
		out <- designResult{code: resp.StatusCode, batch: r.BatchSize}
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

// TestDesignBatchCoalesces pins group commit: a query that finds the
// batcher idle is taken alone at once, and the queries that arrive while
// its batch runs all ride exactly one follow-up batch (and the batch
// counter and size histogram observe exactly those two batches).
func TestDesignBatchCoalesces(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := newTestServer(t, Config{Metrics: reg})
	id := e.createSession(t)
	sess := e.srv.sessions[id]
	held, release := holdFirstBatch(t, e, id)

	first := designAsync(e, id, "h1")
	if n := held(); n != 1 {
		t.Fatalf("held batch has %d queries, want 1", n)
	}
	const n = 7
	ids := []string{"h1", "h2", "m1", "c1"}
	rest := make([]<-chan designResult, n)
	for i := range rest {
		rest[i] = designAsync(e, id, ids[i%len(ids)])
	}
	waitFor(t, "queries to queue behind the held batch", func() bool { return len(sess.designCh) == n })
	release()

	if r := awaitDesign(t, first); r.code != http.StatusOK || r.batch != 1 {
		t.Errorf("held query: status %d, batch %d; want 200, 1", r.code, r.batch)
	}
	for i, ch := range rest {
		if r := awaitDesign(t, ch); r.code != http.StatusOK || r.batch != n {
			t.Errorf("queued query %d: status %d, batch %d; want 200, %d", i, r.code, r.batch, n)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters[metricBatches]; got != 2 {
		t.Errorf("%s = %d, want 2", metricBatches, got)
	}
	if h := snap.Histograms[metricBatchSize]; h.Count != 2 || h.Sum != 1+n {
		t.Errorf("batch-size histogram: count %d sum %v, want 2 and %d", h.Count, h.Sum, 1+n)
	}
}

// TestBatchMaxTriggersEarly pins the size cap: five queries queued behind
// a held batch with BatchMax=2 ride batches of 2, 2 and 1.
func TestBatchMaxTriggersEarly(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := newTestServer(t, Config{BatchMax: 2, Metrics: reg})
	id := e.createSession(t)
	sess := e.srv.sessions[id]
	held, release := holdFirstBatch(t, e, id)

	first := designAsync(e, id, "h1")
	held()
	const n = 5
	rest := make([]<-chan designResult, n)
	for i := range rest {
		rest[i] = designAsync(e, id, "h2")
	}
	waitFor(t, "queries to queue behind the held batch", func() bool { return len(sess.designCh) == n })
	release()

	if r := awaitDesign(t, first); r.code != http.StatusOK || r.batch != 1 {
		t.Errorf("held query: status %d, batch %d; want 200, 1", r.code, r.batch)
	}
	sizes := map[int]int{}
	for i, ch := range rest {
		r := awaitDesign(t, ch)
		if r.code != http.StatusOK {
			t.Errorf("queued query %d: status %d", i, r.code)
		}
		sizes[r.batch]++
	}
	if sizes[2] != 4 || sizes[1] != 1 {
		t.Errorf("queued queries by batch size %v, want map[1:1 2:4]", sizes)
	}
	if got := reg.Snapshot().Counters[metricBatches]; got != 4 {
		t.Errorf("%s = %d, want 4", metricBatches, got)
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
	if resp.BatchSize != 1 {
		t.Errorf("batch size = %d, want 1", resp.BatchSize)
	}
}

// TestDesignQueryDeadlineBehindHeldBatch pins the handler's deadline: a
// query queued behind a batch that outlasts RequestTimeout answers 504 at
// its deadline, not when the batch ends, and the batcher serves the next
// query normally once the batch completes.
func TestDesignQueryDeadlineBehindHeldBatch(t *testing.T) {
	e := newTestServer(t, Config{RequestTimeout: 200 * time.Millisecond})
	id := e.createSession(t)
	sess := e.srv.sessions[id]
	held, release := holdFirstBatch(t, e, id)

	first := designAsync(e, id, "h1")
	held()
	queued := designAsync(e, id, "h2")
	waitFor(t, "a query to queue behind the held batch", func() bool { return len(sess.designCh) == 1 })
	r := awaitDesign(t, queued)
	if r.code != http.StatusGatewayTimeout {
		t.Errorf("queued query past its deadline: status %d, want 504", r.code)
	}
	if r := awaitDesign(t, first); r.code != http.StatusGatewayTimeout {
		t.Errorf("held query past its deadline: status %d, want 504", r.code)
	}
	release()

	var resp DesignQueryResponse
	if code := e.do(t, "POST", "/v1/sessions/"+id+"/design", &DesignQueryRequest{AgentID: "m1"}, &resp); code != http.StatusOK {
		t.Fatalf("design after the held batch: status %d", code)
	}
	if resp.BatchSize != 1 {
		t.Errorf("batch size = %d, want 1", resp.BatchSize)
	}
}

// TestDesignServedFromWarmCache checks the cache hand-off between the
// round loop and the design batcher: after one round, a design query for a
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
