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

// TestDrainMidDesignQuery drains the server while a design query is
// admitted and awaiting a held cold build of its key: the query completes
// with 200 once the build lands, and a query arriving after Drain began is
// refused with 503.
func TestDrainMidDesignQuery(t *testing.T) {
	e := newTestServer(t, Config{})
	id := e.createSession(t)
	sess := e.srv.sessions[id]
	release, landed := holdFlight(t, e, id, "h1")

	first := designAsync(e, id, "h1")
	waitFor(t, "the query to be admitted", func() bool { return sess.inFlight.Load() == 1 })

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
	select {
	case r := <-first:
		t.Fatalf("admitted query answered %d before its build landed", r.code)
	default:
	}

	release()
	if err := <-landed; err != nil {
		t.Fatalf("held build: %v", err)
	}
	if r := awaitDesign(t, first); r.code != http.StatusOK {
		t.Errorf("query admitted before drain: status %d, want 200 (must complete)", r.code)
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
