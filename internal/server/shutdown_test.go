package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestGracefulShutdown drains the server mid-round: the in-flight round
// completes with 200, the queued round gets 503, new requests get 503, and
// the resulting ledger is identical to an undisturbed single-round run.
func TestGracefulShutdown(t *testing.T) {
	e, gp := gateServer(t, Config{})
	id := e.createSession(t)
	sess := e.srv.sessions[id]

	var wg sync.WaitGroup
	var roundA RoundJSON
	codeA, codeB := 0, 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		codeA = e.do(t, "POST", "/v1/sessions/"+id+"/rounds", nil, &roundA)
	}()
	<-gp.entered // round A is executing inside the policy

	wg.Add(1)
	go func() { defer wg.Done(); codeB = e.do(t, "POST", "/v1/sessions/"+id+"/rounds", nil, nil) }()
	waitFor(t, "B to queue", func() bool { return len(sess.cmds) == 1 })

	// Begin drain while A is still blocked mid-round.
	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- e.srv.Drain(ctx)
	}()
	waitFor(t, "drain to begin", func() bool { return sess.draining.Load() })

	// New work is refused while draining.
	if code := e.do(t, "POST", "/v1/sessions/"+id+"/rounds", nil, nil); code != http.StatusServiceUnavailable {
		t.Errorf("request during drain: status %d, want 503", code)
	}
	req := testCreateReq()
	if code := e.do(t, "POST", "/v1/sessions", &req, nil); code != http.StatusServiceUnavailable {
		t.Errorf("session creation during drain: status %d, want 503", code)
	}

	close(gp.gate) // release the in-flight round
	wg.Wait()
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if codeA != http.StatusOK {
		t.Errorf("in-flight round: status %d, want 200 (must complete)", codeA)
	}
	if codeB != http.StatusServiceUnavailable {
		t.Errorf("queued round: status %d, want 503 (never started)", codeB)
	}

	// Reads still work after drain; the ledger holds exactly round A.
	var ledger []RoundJSON
	if code := e.do(t, "GET", "/v1/sessions/"+id+"/rounds", nil, &ledger); code != http.StatusOK {
		t.Fatalf("list rounds after drain: status %d", code)
	}
	if len(ledger) != 1 {
		t.Fatalf("ledger has %d rounds after drain, want 1", len(ledger))
	}

	// Byte-identical to an undisturbed single-round run.
	e2 := newTestServer(t, Config{})
	id2 := e2.createSession(t)
	if code := e2.do(t, "POST", "/v1/sessions/"+id2+"/rounds", nil, nil); code != http.StatusOK {
		t.Fatalf("undisturbed round: status %d", code)
	}
	var want []RoundJSON
	if code := e2.do(t, "GET", "/v1/sessions/"+id2+"/rounds", nil, &want); code != http.StatusOK {
		t.Fatalf("undisturbed ledger: status %d", code)
	}
	got, err := json.Marshal(ledger)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(ref) {
		t.Errorf("drained ledger differs from undisturbed run:\n got %s\nwant %s", got, ref)
	}
}

// TestDrainMidDesignBatch drains the server while a design batch is held:
// the held batch completes with 200, the queries queued behind it get 503
// (never started), and a query made during the drain is refused with 503.
func TestDrainMidDesignBatch(t *testing.T) {
	e := newTestServer(t, Config{})
	id := e.createSession(t)
	sess := e.srv.sessions[id]
	held, release := holdFirstBatch(t, e, id)

	first := designAsync(e, id, "h1")
	held()
	queued := []<-chan designResult{designAsync(e, id, "h2"), designAsync(e, id, "m1")}
	waitFor(t, "queries to queue behind the held batch", func() bool { return len(sess.designCh) == len(queued) })

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- e.srv.Drain(ctx)
	}()
	waitFor(t, "drain to begin", func() bool { return sess.draining.Load() })
	q := DesignQueryRequest{AgentID: "c1"}
	if code := e.do(t, "POST", "/v1/sessions/"+id+"/design", &q, nil); code != http.StatusServiceUnavailable {
		t.Errorf("design during drain: status %d, want 503", code)
	}

	release()
	if r := awaitDesign(t, first); r.code != http.StatusOK || r.batch != 1 {
		t.Errorf("held batch's query: status %d, batch %d; want 200, 1 (must complete)", r.code, r.batch)
	}
	for i, ch := range queued {
		if r := awaitDesign(t, ch); r.code != http.StatusServiceUnavailable {
			t.Errorf("queued query %d: status %d, want 503 (never started)", i, r.code)
		}
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestDrainIdleServer is the trivial case: drain with nothing in flight
// returns promptly and flips every endpoint to 503.
func TestDrainIdleServer(t *testing.T) {
	e := newTestServer(t, Config{})
	id := e.createSession(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code := e.do(t, "POST", "/v1/sessions/"+id+"/rounds", nil, nil); code != http.StatusServiceUnavailable {
		t.Errorf("round after drain: status %d, want 503", code)
	}
	q := DesignQueryRequest{AgentID: "h1"}
	if code := e.do(t, "POST", "/v1/sessions/"+id+"/design", &q, nil); code != http.StatusServiceUnavailable {
		t.Errorf("design after drain: status %d, want 503", code)
	}
	// Drain is idempotent.
	if err := e.srv.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}
