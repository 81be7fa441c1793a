package main

import (
	"bytes"
	"strings"
	"testing"

	"dyncontract/internal/engine"
)

func TestRunAllPolicies(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-rounds", "2", "-perclass", "40", "-seed", "4"}, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"policy dynamic-contract",
		"policy exclude-malicious(>0.50)",
		"policy fixed-payment(1.00)",
		"total utility over 2 rounds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if got := strings.Count(out, "round 0:"); got != 3 {
		t.Errorf("round-0 lines = %d, want 3 (one per policy)", got)
	}
}

func TestRunSinglePolicy(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-policies", "dynamic", "-rounds", "1", "-perclass", "30"}, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if strings.Contains(buf.String(), "exclude-malicious") {
		t.Error("unrequested policy ran")
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-policies", "anarchy"}, &buf); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := run([]string{"-scale", "huge"}, &buf); err == nil {
		t.Error("unknown scale accepted")
	}
	if err := run([]string{"-rounds", "0", "-perclass", "10"}, &buf); err == nil {
		t.Error("rounds=0 accepted")
	}
}

func TestRunRespondStats(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-policies", "dynamic", "-rounds", "2", "-perclass", "30", "-stats"}, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, name := range []string{engine.MetricRespondHits, engine.MetricRespondMisses, engine.MetricCacheHits, engine.MetricCacheMisses} {
		if !strings.Contains(out, "  "+name+" ") {
			t.Errorf("-stats output missing %s:\n%s", name, out)
		}
	}
}

func TestRunNoMemoMatchesMemo(t *testing.T) {
	var with, without bytes.Buffer
	if err := run([]string{"-policies", "dynamic", "-rounds", "2", "-perclass", "25"}, &with); err != nil {
		t.Fatalf("memo run: %v", err)
	}
	if err := run([]string{"-policies", "dynamic", "-rounds", "2", "-perclass", "25", "-nomemo"}, &without); err != nil {
		t.Fatalf("nomemo run: %v", err)
	}
	// The memo is a pure optimization: identical ledgers either way.
	if with.String() != without.String() {
		t.Errorf("memoized and memo-free runs disagree:\nmemo:\n%s\nnomemo:\n%s", with.String(), without.String())
	}
}
