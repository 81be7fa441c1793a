package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dyncontract/internal/server"
)

func startServer(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestClosedLoop drives a short closed-loop run against an in-process
// server and checks the summary.
func TestClosedLoop(t *testing.T) {
	url := startServer(t)
	var out bytes.Buffer
	err := run([]string{"-addr", url, "-clients", "4", "-requests", "5", "-round-every", "3", "-strict"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"20 requests", "rounds:", "designs:", "latency: p50"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestDriftMix adds sparse drift requests to the mix and checks they
// succeed and get their own latency line.
func TestDriftMix(t *testing.T) {
	url := startServer(t)
	var out bytes.Buffer
	err := run([]string{"-addr", url, "-clients", "2", "-requests", "9",
		"-round-every", "4", "-drift-every", "3", "-drift-agents", "2", "-strict"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"drifts:", "latency[drift]: p50"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "drifts:      0 ok") {
		t.Errorf("no drift request succeeded:\n%s", out.String())
	}
}

// TestScale posts a pipeline population built client-side and drives
// designs, drifts, joins and leaves against it. Probes and joiners copy
// the population's first honest agent, whose psi is valid on the
// pipeline's partition, so -strict sees no failure.
func TestScale(t *testing.T) {
	url := startServer(t)
	var out bytes.Buffer
	err := run([]string{"-addr", url, "-scale", "small", "-seed", "7", "-per-class", "10",
		"-clients", "2", "-requests", "12", "-round-every", "3", "-drift-every", "5",
		"-join-every", "4", "-leave-every", "4", "-strict"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"24 requests", "latency[design]: p50", "latency[join]: p50"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestOpenLoop exercises the rate-paced path.
func TestOpenLoop(t *testing.T) {
	url := startServer(t)
	var out bytes.Buffer
	err := run([]string{"-addr", url, "-clients", "2", "-duration", "300ms", "-rate", "50", "-strict"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "open loop at 50 req/s") {
		t.Errorf("output missing open-loop banner:\n%s", out.String())
	}
}

// TestHealthcheck passes against a live server and fails fast against a
// dead one.
func TestHealthcheck(t *testing.T) {
	url := startServer(t)
	var out bytes.Buffer
	if err := run([]string{"-addr", url, "-healthcheck"}, &out); err != nil {
		t.Fatalf("healthcheck against live server: %v", err)
	}
	if err := run([]string{"-addr", "http://127.0.0.1:1", "-healthcheck", "-healthcheck-timeout", "300ms"}, &out); err == nil {
		t.Fatal("healthcheck against dead address succeeded")
	}
}

// TestStrictFailsOnErrors points loadgen at a server that 500s everything.
func TestStrictFailsOnErrors(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
		_, _ = w.Write([]byte(`{"id":"s1","agents":1,"policy":"dynamic"}`))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	var out bytes.Buffer
	if err := run([]string{"-addr", ts.URL, "-clients", "1", "-requests", "3", "-strict"}, &out); err == nil {
		t.Fatal("strict run against a 500ing server succeeded")
	}
}
