package dyncontract

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dyncontract/internal/server"
)

// BenchmarkServerDesignConcurrent measures the serving layer end to end:
// concurrent clients posting design-only queries through the HTTP API
// against a warm design cache. Each query runs on its own request
// goroutine: a cache lookup and an O(m) pick. Sub-benchmarks vary the
// client fan-in (1, 8 and 32 concurrent clients); cold solve cost is paid
// once before the timer starts.
//
// This benchmark rides the network stack (httptest over loopback), so it
// is intentionally excluded from bench.sh's warm-round regression bars —
// track it for trend, not for the ±25% gate.
func BenchmarkServerDesignConcurrent(b *testing.B) {
	for _, clients := range []int{1, 8, 32} {
		// Name deliberately avoids a trailing "-<digits>": bench.sh strips
		// that pattern as the GOMAXPROCS suffix when building JSON names.
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			srv := server.New(server.Config{})
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
// one session, so every request exercises the touched-set
// declaration (Population.Touch) and the engine's sparse refresh on the
// next round advance. The "drift-only" variant posts back-to-back drifts;
// "drift+round" interleaves a round advance after each drift, covering
// the sparse refresh and patch respond as well.
//
// Like BenchmarkServerDesignConcurrent this rides the network stack, so it is
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
			M: 10, Delta: 0.2, Mu: 1,
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

// BenchmarkServerStep times one served step's parts in process — the
// server's Handler called on a response recorder, no sockets — on a
// session of n agents in three archetypes, for n in {1k, 10k, 100k}:
//
//   - drift: toggles the weights of a fixed set of 8 agents;
//   - round: advances one round;
//   - design-by-id: a design query by agent_id, cycling over the 8
//     agents (warm design cache);
//   - design-inline: a design query carrying an inline agent, the form
//     perfbench's paper-serve and restart workloads send: a worker not in
//     the session, cloned from a session agent at a weight no session
//     agent holds (its key is warmed once, off the clock).
//
// A step that costs what it touches keeps drift and design-by-id flat in
// n: scripts/bench.sh gates design(100k)/design(1k) and
// drift(100k)/drift(1k) as same-run ratios. round and design-inline are
// trend-only: the settle pass and the ledger's round log still walk all n
// agents, and design-inline adds only the inline agent's decode and
// validation to design-by-id.
func BenchmarkServerStep(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%dk", n/1000), func(b *testing.B) {
			h, id := newStepSession(b, n)
			ids := make([]string, 8)
			for i := range ids {
				ids[i] = stepAgentID(i * (n / len(ids)))
			}
			var drifts [2][]byte
			for k := range drifts {
				req := server.DriftRequest{Weights: make(map[string]float64, len(ids))}
				for i, a := range ids {
					req.Weights[a] = stepWeight(i + k)
				}
				drifts[k] = mustJSON(b, req)
			}
			designs := make([][]byte, len(ids))
			for i, a := range ids {
				designs[i] = mustJSON(b, server.DesignQueryRequest{AgentID: a})
			}
			inline := stepSpec(0)
			inline.ID, inline.Weight = "inline-query", 0.9
			designInline := mustJSON(b, server.DesignQueryRequest{Agent: &inline})
			roundBody := mustJSON(b, server.AdvanceRoundRequest{})
			driftPath := "/v1/sessions/" + id + "/drift"
			roundPath := "/v1/sessions/" + id + "/rounds"
			designPath := "/v1/sessions/" + id + "/design"
			// Warm both toggled weights in the design cache and respond memo.
			for k := 0; k < 2; k++ {
				serve(b, h, driftPath, drifts[k], http.StatusOK)
				serve(b, h, roundPath, roundBody, http.StatusOK)
			}
			for _, body := range append(designs, designInline) {
				serve(b, h, designPath, body, http.StatusOK)
			}

			b.Run("drift", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					serve(b, h, driftPath, drifts[i%2], http.StatusOK)
				}
			})
			b.Run("round", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					serve(b, h, roundPath, roundBody, http.StatusOK)
				}
			})
			b.Run("design-by-id", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					serve(b, h, designPath, designs[i%len(designs)], http.StatusOK)
				}
			})
			b.Run("design-inline", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					serve(b, h, designPath, designInline, http.StatusOK)
				}
			})
		})
	}
}

func stepAgentID(i int) string { return fmt.Sprintf("a%06d", i) }

// stepWeight is the requester weight of the i-th step-bench agent: one of
// two values, so a toggle moves between two warm design menus.
func stepWeight(i int) float64 { return 0.8 + 0.2*float64(i%2) }

// stepSpec is the i-th step-bench agent, in one of three archetypes.
func stepSpec(i int) server.AgentSpec {
	s := server.AgentSpec{ID: stepAgentID(i), Psi: server.PsiSpec{R2: -0.02, R1: 2, R0: 1}, Beta: 1, Weight: stepWeight(i)}
	switch i % 3 {
	case 0:
		s.Class = "honest"
	case 1:
		s.Class, s.Omega, s.Malice = "malicious", 0.5, 0.9
	default:
		s.Class, s.Omega, s.Size, s.Malice = "community", 0.5, 3, 0.95
	}
	return s
}

// newStepSession creates a session of n agents through the handler: the
// first thousand with the create request, the rest through drift adds of
// ten thousand (a create body for 100k agents would pass the 8 MB cap).
func newStepSession(b *testing.B, n int) (http.Handler, string) {
	b.Helper()
	h := server.New(server.Config{}).Handler()
	create := server.CreateSessionRequest{M: 8, Delta: 5, Mu: 1}
	for i := 0; i < min(n, 1000); i++ {
		create.Agents = append(create.Agents, stepSpec(i))
	}
	var created server.CreateSessionResponse
	rec := serve(b, h, "/v1/sessions", mustJSON(b, create), http.StatusCreated)
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		b.Fatal(err)
	}
	for lo := 1000; lo < n; lo += 10_000 {
		var add server.DriftRequest
		for i := lo; i < min(n, lo+10_000); i++ {
			add.Add = append(add.Add, stepSpec(i))
		}
		serve(b, h, "/v1/sessions/"+created.ID+"/drift", mustJSON(b, add), http.StatusOK)
	}
	return h, created.ID
}

// serve calls the handler with one JSON POST on a recorder and enforces
// the expected status.
func serve(b *testing.B, h http.Handler, path string, body []byte, want int) *httptest.ResponseRecorder {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != want {
		b.Fatalf("POST %s: status %d, want %d: %s", path, rec.Code, want, strings.TrimSpace(rec.Body.String()))
	}
	return rec
}

func mustJSON(b *testing.B, v any) []byte {
	b.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	return body
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
