// Command tracecheck is the smoke test's tracing probe: against a live
// contractd running with -trace it creates a small session, advances one
// round under a known X-Request-Id, fetches the trace back from
// /debug/traces by that same id, and asserts the span tree covers the
// round end to end — HTTP handler root, session queue and execute spans,
// the engine round, and its pipeline stages, the design stage annotated
// with the view's agents, the cold round's cache traffic and its solver
// batch — and that the Chrome trace_event export of the same trace
// parses. It then sends one design query under a second known id and
// asserts that query's trace holds the HTTP root and a session.design
// child naming the agent. Exit 0 on success, 1 with a diagnostic on any
// mismatch.
//
// Usage:
//
//	tracecheck -addr http://127.0.0.1:8080
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
	"dyncontract/internal/spans"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "contractd base URL")
	flag.Parse()
	if err := run(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
	fmt.Println("tracecheck: traced round covers HTTP -> queue -> engine -> stages; traced design covers HTTP -> session.design")
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
	if err := post(client, addr+"/v1/sessions", "", create, &created, http.StatusCreated); err != nil {
		return fmt.Errorf("create session: %w", err)
	}

	const reqID = "tracecheck-round-1"
	var round server.RoundJSON
	if err := post(client, addr+"/v1/sessions/"+created.ID+"/rounds", reqID,
		server.AdvanceRoundRequest{}, &round, http.StatusOK); err != nil {
		return fmt.Errorf("advance round: %w", err)
	}

	// The trace is retrievable by the exact id the client sent.
	tr, err := fetchTrace(client, addr, reqID)
	if err != nil {
		return err
	}
	if err := checkTree(tr); err != nil {
		return fmt.Errorf("trace %s: %w", reqID, err)
	}

	// The same trace exports as Chrome trace_event JSON.
	raw, err := get(client, addr+"/debug/traces?id="+reqID+"&format=chrome")
	if err != nil {
		return fmt.Errorf("fetch chrome trace: %w", err)
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		return fmt.Errorf("chrome export does not parse: %w", err)
	}
	if len(chrome.TraceEvents) < len(tr.Spans) {
		return fmt.Errorf("chrome export has %d events for %d spans", len(chrome.TraceEvents), len(tr.Spans))
	}

	// A design query runs on its own request: its trace is the HTTP root
	// with a session.design child naming the agent.
	const designID = "tracecheck-design-1"
	var designed server.DesignQueryResponse
	if err := post(client, addr+"/v1/sessions/"+created.ID+"/design", designID,
		server.DesignQueryRequest{AgentID: "h1"}, &designed, http.StatusOK); err != nil {
		return fmt.Errorf("design query: %w", err)
	}
	if tr, err = fetchTrace(client, addr, designID); err != nil {
		return err
	}
	if err := checkDesign(tr, "h1"); err != nil {
		return fmt.Errorf("trace %s: %w", designID, err)
	}
	return nil
}

// fetchTrace fetches one trace from /debug/traces by its request id.
func fetchTrace(client *http.Client, addr, reqID string) (spans.Trace, error) {
	var tr spans.Trace
	raw, err := get(client, addr+"/debug/traces?id="+reqID)
	if err != nil {
		return tr, fmt.Errorf("fetch trace %s: %w", reqID, err)
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		return tr, fmt.Errorf("trace %s does not parse: %w (%s)", reqID, err, raw)
	}
	return tr, nil
}

// checkDesign insists a design query's trace is the HTTP design root with
// a session.design child whose agent attribute names agent.
func checkDesign(tr spans.Trace, agent string) error {
	root, ok := tr.Root()
	if !ok {
		return fmt.Errorf("no root span among %d spans", len(tr.Spans))
	}
	if root.Name != "http design" {
		return fmt.Errorf("root span %q, want %q", root.Name, "http design")
	}
	for _, sd := range tr.Spans {
		if sd.Parent != root.ID || sd.Name != "session.design" {
			continue
		}
		for _, a := range sd.Attrs {
			if a.Key == "agent" {
				if a.Value != agent {
					return fmt.Errorf("session.design agent = %q, want %q", a.Value, agent)
				}
				return nil
			}
		}
		return fmt.Errorf("session.design has no agent attribute: %v", sd.Attrs)
	}
	return fmt.Errorf("no session.design span under root")
}

// checkTree walks the span tree down from the HTTP root and insists every
// layer of the round is present.
func checkTree(tr spans.Trace) error {
	root, ok := tr.Root()
	if !ok {
		return fmt.Errorf("no root span among %d spans", len(tr.Spans))
	}
	if root.Name != "http rounds_advance" {
		return fmt.Errorf("root span %q, want %q", root.Name, "http rounds_advance")
	}
	children := func(id spans.SpanID) map[string]spans.SpanData {
		m := map[string]spans.SpanData{}
		for _, sd := range tr.Spans {
			if sd.Parent == id {
				m[sd.Name] = sd
			}
		}
		return m
	}
	under := children(root.ID)
	if _, ok := under["session.queue"]; !ok {
		return fmt.Errorf("no session.queue span under root")
	}
	exec, ok := under["session.execute"]
	if !ok {
		return fmt.Errorf("no session.execute span under root")
	}
	round, ok := children(exec.ID)["engine.round"]
	if !ok {
		return fmt.Errorf("no engine.round span under session.execute")
	}
	stages := children(round.ID)
	for _, want := range []string{
		"engine.stage.design", "engine.stage.contracts", "engine.stage.respond",
		"engine.stage.settle", "engine.stage.observe",
	} {
		if _, ok := stages[want]; !ok {
			return fmt.Errorf("missing stage span %q", want)
		}
	}
	// The cold round designs all four agents, each its own design key:
	// the design stage span counts them, and the cache misses and solver
	// batch are the four menu builds.
	design := map[string]string{}
	for _, a := range stages["engine.stage.design"].Attrs {
		design[a.Key] = a.Value
	}
	for key, want := range map[string]string{"agents": "4", "cache.hits": "0", "cache.misses": "4", "batch": "4"} {
		if got, ok := design[key]; !ok || got != want {
			return fmt.Errorf("engine.stage.design %s = %q (present %v), want %q", key, got, ok, want)
		}
	}
	return nil
}

// post issues one JSON POST (carrying reqID as X-Request-Id when set) and
// decodes the response, insisting on the expected status.
func post(client *http.Client, url, reqID string, in, out any, want int) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set(spans.HeaderRequestID, reqID)
	}
	resp, err := client.Do(req)
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
	if reqID != "" && resp.Header.Get(spans.HeaderRequestID) != reqID {
		return fmt.Errorf("response did not echo X-Request-Id %q (got %q)",
			reqID, resp.Header.Get(spans.HeaderRequestID))
	}
	return json.Unmarshal(raw, out)
}

// get fetches one URL, insisting on 200.
func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	return raw, nil
}
