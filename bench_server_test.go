package dyncontract

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"dyncontract/internal/server"
)

// BenchmarkServerDesignBatch measures the serving layer end to end:
// concurrent clients posting design-only queries through the HTTP API
// against a warm design cache. The batcher group-commits: a query that
// finds it idle runs at once, and the queries that arrive while a batch
// runs share the next engine pass. Sub-benchmarks vary the client fan-in
// (one client never shares a batch; more clients share more); cold solve
// cost is paid once before the timer starts.
//
// This benchmark rides the network stack (httptest over loopback), so it
// is intentionally excluded from bench.sh's warm-round regression bars —
// track it for trend, not for the ±25% gate.
func BenchmarkServerDesignBatch(b *testing.B) {
	for _, clients := range []int{1, 8, 32} {
		// Name deliberately avoids a trailing "-<digits>": bench.sh strips
		// that pattern as the GOMAXPROCS suffix when building JSON names.
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			srv := server.New(server.Config{BatchMax: 64})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			psi := server.PsiSpec{R2: -0.25, R1: 2}
			create := server.CreateSessionRequest{
				Agents: []server.AgentSpec{
					{ID: "h1", Class: "honest", Psi: psi, Beta: 1, Weight: 1},
					{ID: "m1", Class: "malicious", Psi: psi, Beta: 1, Omega: 0.5, Weight: 0.8},
				},
				M: 20, Delta: 0.1, Mu: 1,
			}
			var created server.CreateSessionResponse
			post(b, ts, "/v1/sessions", create, &created, http.StatusCreated)

			// Warm the cache: every weight the loop will query, solved once.
			query := func(i int) server.DesignQueryRequest {
				return server.DesignQueryRequest{Agent: &server.AgentSpec{
					ID: "probe", Class: "honest", Psi: psi, Beta: 1,
					Weight: 0.5 + 0.25*float64(i%4),
				}}
			}
			path := "/v1/sessions/" + created.ID + "/design"
			for i := 0; i < 4; i++ {
				post(b, ts, path, query(i), nil, http.StatusOK)
			}

			b.ResetTimer()
			b.ReportAllocs()
			var wg sync.WaitGroup
			per := b.N / clients
			extra := b.N % clients
			for c := 0; c < clients; c++ {
				n := per
				if c < extra {
					n++
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						post(b, ts, path, query(i), nil, http.StatusOK)
					}
				}(n)
			}
			wg.Wait()
		})
	}
}

// BenchmarkServerDriftRoute measures the drift mutation route end to end:
// one client alternating an agent's feedback weight between two values on
// a sharded session, so every request exercises the touched-set
// declaration (Population.Touch) and the engine's sparse refresh on the
// next round advance. The "drift-only" variant posts back-to-back drifts;
// "drift+round" interleaves a round advance after each drift, covering
// the sparse refresh and patch respond as well.
//
// Like BenchmarkServerDesignBatch this rides the network stack, so it is
// excluded from bench.sh's warm-round regression bars.
func BenchmarkServerDriftRoute(b *testing.B) {
	newSession := func(b *testing.B) (*httptest.Server, string) {
		srv := server.New(server.Config{})
		ts := httptest.NewServer(srv.Handler())
		b.Cleanup(ts.Close)
		psi := server.PsiSpec{R2: -0.25, R1: 2}
		create := server.CreateSessionRequest{
			Agents: []server.AgentSpec{
				{ID: "h1", Class: "honest", Psi: psi, Beta: 1, Weight: 1},
				{ID: "h2", Class: "honest", Psi: psi, Beta: 1.2, Weight: 1},
				{ID: "m1", Class: "malicious", Psi: psi, Beta: 1, Omega: 0.5, Weight: 0.8, Malice: 0.9},
				{ID: "c1", Class: "community", Psi: psi, Beta: 1, Omega: 0.3, Size: 3, Weight: 0.5},
			},
			M: 10, Delta: 0.2, Mu: 1, Shards: 2,
		}
		var created server.CreateSessionResponse
		post(b, ts, "/v1/sessions", create, &created, http.StatusCreated)
		return ts, created.ID
	}
	drift := func(i int) server.DriftRequest {
		// Two alternating weights keep both fingerprints warm in the
		// session's design cache after the first pair of rounds.
		w := 1.1
		if i%2 == 1 {
			w = 1.2
		}
		return server.DriftRequest{Weights: map[string]float64{"h1": w}}
	}

	b.Run("drift-only", func(b *testing.B) {
		ts, id := newSession(b)
		driftPath := "/v1/sessions/" + id + "/drift"
		post(b, ts, "/v1/sessions/"+id+"/rounds", server.AdvanceRoundRequest{}, nil, http.StatusOK)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			post(b, ts, driftPath, drift(i), nil, http.StatusOK)
		}
	})
	b.Run("drift+round", func(b *testing.B) {
		ts, id := newSession(b)
		driftPath := "/v1/sessions/" + id + "/drift"
		roundPath := "/v1/sessions/" + id + "/rounds"
		for i := 0; i < 2; i++ { // warm both drifted fingerprints
			post(b, ts, driftPath, drift(i), nil, http.StatusOK)
			post(b, ts, roundPath, server.AdvanceRoundRequest{}, nil, http.StatusOK)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			post(b, ts, driftPath, drift(i), nil, http.StatusOK)
			post(b, ts, roundPath, server.AdvanceRoundRequest{}, nil, http.StatusOK)
		}
	})
}

// post issues one JSON POST against the bench server and enforces the
// expected status.
func post(b *testing.B, ts *httptest.Server, path string, payload any, out any, want int) {
	b.Helper()
	body, err := json.Marshal(payload)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		b.Fatalf("POST %s: status %d, want %d", path, resp.StatusCode, want)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			b.Fatal(err)
		}
	} else {
		var sink json.RawMessage
		_ = json.NewDecoder(resp.Body).Decode(&sink)
	}
}
