package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"testing"
)

// post sends one POST through h in process (serveRaw) with in encoded
// as its body (none when in is nil) and decodes a 2xx answer into out
// (skipped when out is nil).
func post(t *testing.T, h http.Handler, path string, in, out any) {
	t.Helper()
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			t.Fatal(err)
		}
	}
	code, raw := serveRaw(h, path, body)
	if code/100 != 2 {
		t.Fatalf("POST %s: status %d: %s", path, code, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
	}
}

// liveHeap returns the heap in use after two forced collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSessionHeapPerAgent bounds what a served session retains per agent:
// a 12k-agent archetype session, created and then served 50 rounds whose
// drift swaps the weights of a random tenth of the agent pairs, so each
// agent moves between two outcomes (the round log interns them: two
// table entries per agent). What an agent legitimately costs is its
// population entry, the engine's view, the log's two 24 B entries, its
// 32 B identity and its row references: 428–431 B measured (linux/amd64,
// without and with -race). Entries that each copied the whole 72 B
// outcome measured 483–486 B; a per-ID contract map kept for rounds that
// never ask for contracts (~36 B per agent) and a table grown by append,
// whose last growth left up to a quarter of it unused (~35 B per agent
// here), on top of those, measured 552–556 B.
func TestSessionHeapPerAgent(t *testing.T) {
	const (
		n      = 12000
		rounds = 50
		bound  = 450 // bytes per agent: between 431 and 483
	)
	specs := archetypeAgents(n)
	create := CreateSessionRequest{Agents: specs, M: 10, Delta: 0.2, Mu: 1}
	rng := rand.New(rand.NewSource(3))
	srv := New(Config{})
	h := srv.Handler()
	before := liveHeap()
	var cr CreateSessionResponse
	post(t, h, "/v1/sessions", &create, &cr)
	path := "/v1/sessions/" + cr.ID
	for r := 0; r < rounds; r++ {
		drift := DriftRequest{Weights: map[string]float64{}}
		for _, p := range rng.Perm(n / 2)[:n/20] {
			a, b := &specs[2*p], &specs[2*p+1]
			a.Weight, b.Weight = b.Weight, a.Weight
			drift.Weights[a.ID], drift.Weights[b.ID] = a.Weight, b.Weight
		}
		post(t, h, path+"/drift", &drift, nil)
		post(t, h, path+"/rounds", nil, nil)
	}
	create.Agents, specs = nil, nil
	perAgent := float64(liveHeap()-before) / n
	runtime.KeepAlive(srv)
	t.Logf("%.1f B per agent", perAgent)
	if perAgent > bound {
		t.Errorf("a served %d-agent session retains %.1f B per agent, want <= %d", n, perAgent, bound)
	}
}

// TestIncludeContractsAfterPlainRounds serves two sessions the same
// rounds and drifts — weight and β changes, joins and leaves — one asking
// for contracts in every round, as the engine once built them, and one
// only in a few rounds after plain ones. Every round that asks must
// answer the same contracts, and the same round, in both.
func TestIncludeContractsAfterPlainRounds(t *testing.T) {
	const n, rounds = 60, 10
	e := newTestServer(t, Config{})
	create := CreateSessionRequest{Agents: archetypeAgents(n), M: 10, Delta: 0.2, Mu: 1}
	var always, some CreateSessionResponse
	for _, cr := range []*CreateSessionResponse{&always, &some} {
		if code := e.do(t, "POST", "/v1/sessions", &create, cr); code != http.StatusCreated {
			t.Fatalf("create: status %d", code)
		}
	}
	ask := map[int]bool{0: true, 3: true, 4: true, 7: true, 9: true}
	joiner := archetypeAgents(1)[0]
	for r := 0; r < rounds; r++ {
		var drift DriftRequest
		switch r % 4 {
		case 1:
			drift.Weights = map[string]float64{fmt.Sprintf("agent-%05d", 5*r+1): 1.7}
		case 2:
			joiner.ID = fmt.Sprintf("joiner-%02d", r)
			drift.Add = []AgentSpec{joiner}
			drift.Beta = map[string]float64{fmt.Sprintf("agent-%05d", 2*r): 1.3}
		case 3:
			drift.Remove = []string{fmt.Sprintf("agent-%05d", 3*r)}
		}
		var got [2]RoundJSON
		for i, id := range []string{always.ID, some.ID} {
			if drift.Validate() == nil {
				if code := e.do(t, "POST", "/v1/sessions/"+id+"/drift", &drift, nil); code != http.StatusOK {
					t.Fatalf("round %d drift: status %d", r, code)
				}
			}
			req := AdvanceRoundRequest{IncludeOutcomes: true, IncludeContracts: i == 0 || ask[r]}
			if code := e.do(t, "POST", "/v1/sessions/"+id+"/rounds", &req, &got[i]); code != http.StatusOK {
				t.Fatalf("round %d: status %d", r, code)
			}
		}
		if len(got[0].Contracts) == 0 {
			t.Fatalf("round %d: a round asking for contracts answered none", r)
		}
		if !ask[r] {
			if got[1].Contracts != nil {
				t.Errorf("round %d: a plain round answered contracts", r)
			}
			got[1].Contracts = got[0].Contracts
		}
		a, err := json.Marshal(got[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(got[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("round %d (asked %v) differs from a session that asks every round:\n got %s\nwant %s", r, ask[r], b, a)
		}
	}
}
