package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"dyncontract/internal/telemetry"
)

// TestServeAndDrain boots contractd on an ephemeral port, exercises the
// API end to end, triggers the SIGTERM path, and checks the exit report.
func TestServeAndDrain(t *testing.T) {
	ready := make(chan struct {
		addr     string
		shutdown func()
	}, 1)
	testHookReady = func(addr string, shutdown func()) {
		ready <- struct {
			addr     string
			shutdown func()
		}{addr, shutdown}
	}
	defer func() { testHookReady = nil }()

	var out bytes.Buffer
	runErr := make(chan error, 1)
	go func() {
		runErr <- run([]string{"-listen", "127.0.0.1:0", "-drain-timeout", "5s", "-trace"}, &out)
	}()
	var boot struct {
		addr     string
		shutdown func()
	}
	select {
	case boot = <-ready:
	case err := <-runErr:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + boot.addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	create := `{"agents":[{"id":"h1","class":"honest","psi":{"r2":-0.25,"r1":2},"beta":1,"weight":1}],"m":10,"delta":0.2,"mu":1}`
	resp, err = http.Post(base+"/v1/sessions", "application/json", strings.NewReader(create))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session = %d", resp.StatusCode)
	}

	resp, err = http.Post(fmt.Sprintf("%s/v1/sessions/%s/rounds", base, created.ID), "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advance round = %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}

	// -trace serves the recorded spans at /debug/traces.
	resp, err = http.Get(base + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	traces, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/traces = %d", resp.StatusCode)
	}
	if !bytes.Contains(traces, []byte("engine.round")) {
		t.Errorf("traces missing engine.round span: %s", traces)
	}

	boot.shutdown()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server never exited after shutdown")
	}
	// Lifecycle and request logs flow through slog; the request line for
	// the advanced round carries its route, status, and trace ID, and the
	// drain summary prints the route's metrics under their registry names.
	for _, want := range []string{
		"listening on", "draining", "bye",
		"  " + telemetry.HTTPMetricPrefix + "rounds_advance" + telemetry.HTTPSuffixRequests + " 1\n",
		"  " + telemetry.HTTPMetricPrefix + "rounds_advance" + telemetry.HTTPSuffixSeconds + " count 1 ",
		"msg=request", "route=rounds_advance", "status=200", "trace=",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
