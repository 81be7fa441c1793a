package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"dyncontract/internal/engine"
	"dyncontract/internal/platform"
)

// TestConcurrentClientsDeterministicLedger is the serving layer's
// acceptance test: N concurrent clients hammering one session with
// interleaved round advances and design queries must leave a ledger
// byte-identical to a bare sequential engine stepped the same number of
// rounds — concurrency changes throughput, never results.
func TestConcurrentClientsDeterministicLedger(t *testing.T) {
	e := newTestServer(t, Config{})
	id := e.createSession(t)

	const clients = 8
	const perClient = 4
	var rounds atomic.Int64
	agentIDs := []string{"h1", "h2", "m1", "c1"}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				if code := e.do(t, "POST", "/v1/sessions/"+id+"/rounds", nil, nil); code == http.StatusOK {
					rounds.Add(1)
				} else if code != http.StatusTooManyRequests {
					t.Errorf("client %d round %d: status %d", c, j, code)
				}
				q := DesignQueryRequest{AgentID: agentIDs[(c+j)%len(agentIDs)]}
				if code := e.do(t, "POST", "/v1/sessions/"+id+"/design", &q, nil); code != http.StatusOK && code != http.StatusTooManyRequests {
					t.Errorf("client %d design %d: status %d", c, j, code)
				}
			}
		}(c)
	}
	wg.Wait()
	r := int(rounds.Load())
	if r == 0 {
		t.Fatal("no rounds advanced")
	}

	var served []RoundJSON
	if code := e.do(t, "GET", "/v1/sessions/"+id+"/rounds", nil, &served); code != http.StatusOK {
		t.Fatalf("list rounds: status %d", code)
	}
	if len(served) != r {
		t.Fatalf("ledger has %d rounds, %d advances succeeded", len(served), r)
	}

	// The reference: a bare engine over an identical population, stepped r
	// times sequentially, converted through the same wire types.
	req := testCreateReq()
	pop, err := buildExplicit(&req)
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := engine.RunLedger(context.Background(), pop, engine.Config{
		Policy: &platform.DynamicPolicy{},
		Rounds: r,
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

	got, err := json.Marshal(served)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(ref) {
		t.Errorf("served ledger differs from bare engine over %d rounds:\n got %s\nwant %s", r, got, ref)
	}
}
