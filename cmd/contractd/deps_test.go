package main

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestDaemonImportGraph pins what the daemon links: the serving path and
// the synthetic-population builder (internal/synthpop), and none of the
// experiment, §VII extension or reporting packages. It asks the go tool,
// which `go test` puts on PATH.
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
	if !slices.Contains(deps, "dyncontract/internal/synthpop") {
		t.Fatalf("go list -deps names no dyncontract/internal/synthpop:\n%s", out)
	}
	for _, pkg := range []string{"experiments", "adversary", "assignment", "budget", "classify", "dynamics", "optimal", "replay", "reputation", "textplot"} {
		if slices.Contains(deps, "dyncontract/internal/"+pkg) {
			t.Errorf("contractd links dyncontract/internal/%s", pkg)
		}
	}
}
