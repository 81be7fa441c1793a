package main

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestDaemonImportGraph pins what the daemon links: the serving path
// (internal/server), and none of the synthetic-population pipeline
// (synthpop and the trace, clustering, requester and fitting packages
// behind it) or the experiment, §VII extension and reporting packages. A
// client builds pipeline populations and posts them as agents. It asks
// the go tool, which `go test` puts on PATH.
func TestDaemonImportGraph(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go tool on PATH: %v", err)
	}
	out, err := exec.Command(goTool, "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	deps := strings.Fields(string(out))
	if !slices.Contains(deps, "dyncontract/internal/server") {
		t.Fatalf("go list -deps names no dyncontract/internal/server:\n%s", out)
	}
	for _, pkg := range []string{
		"synth", "synthpop", "trace", "graph", "cluster", "requester", "stats",
		"experiments", "adversary", "assignment", "budget", "classify", "dynamics", "optimal", "replay", "reputation", "textplot",
	} {
		if slices.Contains(deps, "dyncontract/internal/"+pkg) {
			t.Errorf("contractd links dyncontract/internal/%s", pkg)
		}
	}
}
