// Command driftcheck is the smoke test's sparse-drift probe: against a
// live contractd it creates a small session, advances a round,
// drifts exactly one agent's feedback weight, and asserts that (a) the
// drift response reports touched=1 and (b) the next round's ledger rows
// change for that agent only — every untouched agent's outcome row must
// come back byte-for-byte identical. It then fires a structural churn
// burst: five agents join in one drift (response reports joined=5,
// exactly their five rows appear next round, every pre-existing row
// stays byte-identical), then the same five leave (left=5, their rows
// vanish, the survivors' rows are again untouched). Exit 0 on success,
// 1 with a diagnostic on any mismatch.
//
// Usage:
//
//	driftcheck -addr http://127.0.0.1:8080
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"dyncontract/internal/server"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "contractd base URL")
	flag.Parse()
	if err := run(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "driftcheck:", err)
		os.Exit(1)
	}
	fmt.Println("driftcheck: sparse drift perturbed only the touched agent's ledger row; structural churn spliced only the joined/left rows")
}

func run(addr string) error {
	client := &http.Client{Timeout: 30 * time.Second}
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
	if err := post(client, addr+"/v1/sessions", create, &created, http.StatusCreated); err != nil {
		return fmt.Errorf("create session: %w", err)
	}
	base := addr + "/v1/sessions/" + created.ID

	advance := func() (server.RoundJSON, error) {
		var out server.RoundJSON
		err := post(client, base+"/rounds", server.AdvanceRoundRequest{IncludeOutcomes: true}, &out, http.StatusOK)
		return out, err
	}

	before, err := advance()
	if err != nil {
		return fmt.Errorf("round before drift: %w", err)
	}

	var dr server.DriftResponse
	drift := server.DriftRequest{Weights: map[string]float64{"h1": 1.3}}
	if err := post(client, base+"/drift", drift, &dr, http.StatusOK); err != nil {
		return fmt.Errorf("drift: %w", err)
	}
	if dr.Touched != 1 || dr.Updated != 1 {
		return fmt.Errorf("drift response = %+v, want touched=1 updated=1", dr)
	}

	after, err := advance()
	if err != nil {
		return fmt.Errorf("round after drift: %w", err)
	}
	rows := map[string]server.OutcomeJSON{}
	for _, oc := range after.Outcomes {
		rows[oc.AgentID] = oc
	}
	for _, oc := range before.Outcomes {
		got, ok := rows[oc.AgentID]
		if !ok {
			return fmt.Errorf("agent %s has no outcome row after drift", oc.AgentID)
		}
		if oc.AgentID == "h1" {
			if got == oc {
				return fmt.Errorf("touched agent h1's ledger row did not change after weight drift")
			}
			if got.Weight != 1.3 {
				return fmt.Errorf("h1 weight = %v after drift, want 1.3", got.Weight)
			}
			continue
		}
		if got != oc {
			return fmt.Errorf("untouched agent %s's ledger row changed: %+v -> %+v", oc.AgentID, oc, got)
		}
	}

	// Structural churn burst: five agents join in one drift request. Only
	// their rows may appear in the next round; every pre-existing row must
	// stay byte-identical (the engine splices the joiners in, it does not
	// rebuild).
	joiners := make([]server.AgentSpec, 5)
	joinIDs := make(map[string]bool, 5)
	for i := range joiners {
		id := fmt.Sprintf("dc-join-%d", i)
		joiners[i] = server.AgentSpec{ID: id, Class: "honest", Psi: psi, Beta: 1, Weight: 1}
		joinIDs[id] = true
	}
	dr = server.DriftResponse{}
	if err := post(client, base+"/drift", server.DriftRequest{Add: joiners}, &dr, http.StatusOK); err != nil {
		return fmt.Errorf("join drift: %w", err)
	}
	if dr.Joined != 5 {
		return fmt.Errorf("join drift response = %+v, want joined=5", dr)
	}
	joined, err := advance()
	if err != nil {
		return fmt.Errorf("round after join: %w", err)
	}
	if want := len(after.Outcomes) + 5; len(joined.Outcomes) != want {
		return fmt.Errorf("after join: %d outcome rows, want %d", len(joined.Outcomes), want)
	}
	rows = map[string]server.OutcomeJSON{}
	for _, oc := range joined.Outcomes {
		rows[oc.AgentID] = oc
	}
	for id := range joinIDs {
		if _, ok := rows[id]; !ok {
			return fmt.Errorf("joined agent %s has no outcome row", id)
		}
	}
	for _, oc := range after.Outcomes {
		got, ok := rows[oc.AgentID]
		if !ok {
			return fmt.Errorf("agent %s lost its outcome row after join burst", oc.AgentID)
		}
		if got != oc {
			return fmt.Errorf("pre-existing agent %s's ledger row changed across join burst: %+v -> %+v", oc.AgentID, oc, got)
		}
	}

	// The same five leave. Their rows must vanish; the survivors' rows must
	// again come back byte-identical.
	removeIDs := make([]string, 0, len(joinIDs))
	for id := range joinIDs {
		removeIDs = append(removeIDs, id)
	}
	dr = server.DriftResponse{}
	if err := post(client, base+"/drift", server.DriftRequest{Remove: removeIDs}, &dr, http.StatusOK); err != nil {
		return fmt.Errorf("leave drift: %w", err)
	}
	if dr.Left != 5 {
		return fmt.Errorf("leave drift response = %+v, want left=5", dr)
	}
	left, err := advance()
	if err != nil {
		return fmt.Errorf("round after leave: %w", err)
	}
	if len(left.Outcomes) != len(after.Outcomes) {
		return fmt.Errorf("after leave: %d outcome rows, want %d", len(left.Outcomes), len(after.Outcomes))
	}
	rows = map[string]server.OutcomeJSON{}
	for _, oc := range left.Outcomes {
		if joinIDs[oc.AgentID] {
			return fmt.Errorf("left agent %s still has an outcome row", oc.AgentID)
		}
		rows[oc.AgentID] = oc
	}
	for _, oc := range joined.Outcomes {
		if joinIDs[oc.AgentID] {
			continue
		}
		got, ok := rows[oc.AgentID]
		if !ok {
			return fmt.Errorf("surviving agent %s lost its outcome row after leave burst", oc.AgentID)
		}
		if got != oc {
			return fmt.Errorf("surviving agent %s's ledger row changed across leave burst: %+v -> %+v", oc.AgentID, oc, got)
		}
	}
	return nil
}

// post issues one JSON POST and decodes the response, insisting on the
// expected status.
func post(client *http.Client, url string, in, out any, want int) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d (want %d): %s", resp.StatusCode, want, raw)
	}
	return json.Unmarshal(raw, out)
}
