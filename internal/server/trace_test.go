package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"dyncontract/internal/spans"
	"dyncontract/internal/telemetry"
)

// tracedTestServer wires a fully traced server: always-sampled tracer,
// metrics, and a JSON logger writing into logBuf.
func tracedTestServer(t *testing.T) (*testServer, *spans.Recorder, *telemetry.Registry, *bytes.Buffer) {
	t.Helper()
	rec := spans.NewRecorder(16, 8)
	tracer := spans.New(spans.Config{Sample: 1, Seed: 11, Recorder: rec})
	reg := telemetry.NewRegistry()
	logBuf := &bytes.Buffer{}
	logger := slog.New(slog.NewJSONHandler(logBuf, nil))
	e := newTestServer(t, Config{Metrics: reg, Tracer: tracer, Logger: logger})
	return e, rec, reg, logBuf
}

// doTraced issues one JSON request carrying an X-Request-Id and returns
// the status, the echoed request ID, and the raw body.
func (e *testServer) doTraced(t *testing.T, method, path, reqID string, in any) (int, string, []byte) {
	t.Helper()
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, e.ts.URL+path, body)
	if err != nil {
		t.Fatal(err)
	}
	if reqID != "" {
		req.Header.Set(spans.HeaderRequestID, reqID)
	}
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get(spans.HeaderRequestID), raw
}

// fetchTrace retrieves one trace from /debug/traces by the same request-ID
// string the client sent.
func (e *testServer) fetchTrace(t *testing.T, reqID string) spans.Trace {
	t.Helper()
	code, _, raw := e.doTraced(t, "GET", "/debug/traces?id="+reqID, "", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /debug/traces?id=%s: status %d (%s)", reqID, code, raw)
	}
	var tr spans.Trace
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("decode trace: %v (%s)", err, raw)
	}
	return tr
}

// TestTracedRoundEndToEnd pins the acceptance nesting for a traced round:
// HTTP handler span → session queue wait → session execute → engine round
// → the five pipeline stages, the design stage annotated with the view
// and its cold round's cache traffic and solver batch — all
// retrievable from /debug/traces by the client's own X-Request-Id, in
// both export formats, with the latency exemplar pointing back at the
// trace and the request log carrying the same ID.
func TestTracedRoundEndToEnd(t *testing.T) {
	e, _, reg, logBuf := tracedTestServer(t)

	req := testCreateReq()
	var created CreateSessionResponse
	if code := e.do(t, "POST", "/v1/sessions", &req, &created); code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}

	const reqID = "client-round-trace-1"
	code, echoed, _ := e.doTraced(t, "POST", "/v1/sessions/"+created.ID+"/rounds", reqID,
		&AdvanceRoundRequest{})
	if code != http.StatusOK {
		t.Fatalf("advance round: status %d", code)
	}
	if echoed != reqID {
		t.Fatalf("X-Request-Id echoed %q, want the client's %q", echoed, reqID)
	}

	tr := e.fetchTrace(t, reqID)
	byParent := make(map[spans.SpanID][]spans.SpanData)
	byID := make(map[spans.SpanID]spans.SpanData)
	for _, sd := range tr.Spans {
		byParent[sd.Parent] = append(byParent[sd.Parent], sd)
		byID[sd.ID] = sd
	}
	root, ok := tr.Root()
	if !ok {
		t.Fatalf("trace has no root span: %+v", tr.Spans)
	}
	if root.Name != "http rounds_advance" {
		t.Fatalf("root span = %q, want %q", root.Name, "http rounds_advance")
	}
	rootAttrs := attrMap(root)
	if rootAttrs["status"] != "200" || rootAttrs["route"] != "rounds_advance" {
		t.Fatalf("root attrs = %v", rootAttrs)
	}

	// HTTP → session.queue + session.execute.
	names := func(sds []spans.SpanData) map[string]spans.SpanData {
		m := make(map[string]spans.SpanData, len(sds))
		for _, sd := range sds {
			m[sd.Name] = sd
		}
		return m
	}
	under := names(byParent[root.ID])
	queue, ok := under["session.queue"]
	if !ok {
		t.Fatalf("no session.queue span under root: %v", under)
	}
	if queue.End.Before(queue.Start) {
		t.Fatal("session.queue span never ended")
	}
	exec, ok := under["session.execute"]
	if !ok {
		t.Fatalf("no session.execute span under root: %v", under)
	}
	if attrMap(exec)["kind"] != "round" {
		t.Fatalf("execute attrs = %v", attrMap(exec))
	}

	// session.execute → engine.round → stages, with nothing below them.
	round, ok := names(byParent[exec.ID])["engine.round"]
	if !ok {
		t.Fatalf("no engine.round under session.execute: %v", byParent[exec.ID])
	}
	stages := names(byParent[round.ID])
	for _, want := range []string{
		"engine.stage.design", "engine.stage.contracts", "engine.stage.respond",
		"engine.stage.settle", "engine.stage.observe",
	} {
		if _, ok := stages[want]; !ok {
			t.Fatalf("missing stage span %q (have %v)", want, stages)
		}
	}
	for name, sg := range stages {
		if kids := byParent[sg.ID]; len(kids) != 0 {
			t.Fatalf("stage %s has %d child spans, want 0", name, len(kids))
		}
	}
	// The cold round builds a menu per distinct design key in one batch:
	// every build is a cache miss.
	a := attrMap(stages["engine.stage.design"])
	if a["agents"] != strconv.Itoa(len(req.Agents)) || a["drift"] != "viewFull" ||
		a["cache.hits"] != "0" || a["cache.misses"] == "0" || a["batch"] != a["cache.misses"] {
		t.Fatalf("design stage attrs %v", a)
	}

	// Chrome export of the same trace parses and carries events.
	ccode, _, craw := e.doTraced(t, "GET", "/debug/traces?id="+reqID+"&format=chrome", "", nil)
	if ccode != http.StatusOK {
		t.Fatalf("chrome format: status %d", ccode)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(craw, &chrome); err != nil {
		t.Fatalf("chrome export does not parse: %v", err)
	}
	if len(chrome.TraceEvents) < len(tr.Spans) {
		t.Fatalf("chrome export has %d events for %d spans", len(chrome.TraceEvents), len(tr.Spans))
	}

	// The route's latency exemplar points back at this trace.
	snap := reg.Snapshot()
	hist := snap.Histograms[telemetry.HTTPMetricPrefix+"rounds_advance"+telemetry.HTTPSuffixSeconds]
	if hist.ExemplarLabel != root.Trace.String() {
		t.Fatalf("latency exemplar = %q, want trace %s", hist.ExemplarLabel, root.Trace)
	}
	// The queue-wait histogram observed the command, exemplar included.
	wait := snap.Histograms[metricSessionQueueWait]
	if wait.Count == 0 || wait.ExemplarLabel != root.Trace.String() {
		t.Fatalf("queue wait: count=%d exemplar=%q", wait.Count, wait.ExemplarLabel)
	}

	// The request log line carries route, status, and the request ID.
	logs := logBuf.String()
	if !strings.Contains(logs, `"route":"rounds_advance"`) || !strings.Contains(logs, reqID) {
		t.Fatalf("request log missing route/trace: %s", logs)
	}
}

// TestTracedDesignBatchLink pins a traced design query's spans: its own
// trace holds the http route root and a session.design child carrying the
// agent, and the query records no other trace.
func TestTracedDesignBatchLink(t *testing.T) {
	e, rec, _, _ := tracedTestServer(t)
	id := e.createSession(t)
	before := rec.Completed()

	const reqID = "client-design-trace-1"
	code, _, _ := e.doTraced(t, "POST", "/v1/sessions/"+id+"/design", reqID,
		&DesignQueryRequest{AgentID: "h1"})
	if code != http.StatusOK {
		t.Fatalf("design query: status %d", code)
	}

	tr := e.fetchTrace(t, reqID)
	root, ok := tr.Root()
	if !ok || root.Name != "http design" {
		t.Fatalf("trace root = %+v", root)
	}
	var design *spans.SpanData
	for i, sd := range tr.Spans {
		if sd.Name == "session.design" {
			design = &tr.Spans[i]
		}
	}
	if design == nil {
		t.Fatalf("no session.design span in trace: %+v", tr.Spans)
	}
	if design.Parent != root.ID {
		t.Errorf("session.design parent = %s, want the root %s", design.Parent, root.ID)
	}
	if a := attrMap(*design); a["agent"] != "h1" {
		t.Errorf("session.design attrs = %v, want agent=h1", a)
	}
	if n := rec.Completed() - before; n != 1 {
		t.Errorf("the design query recorded %d traces, want 1 (its own)", n)
	}
}

// attrMap flattens a span's attributes for assertion.
func attrMap(sd spans.SpanData) map[string]string {
	m := make(map[string]string, len(sd.Attrs))
	for _, a := range sd.Attrs {
		m[a.Key] = a.Value
	}
	return m
}
