package experiments

import (
	"strings"
	"testing"
)

func TestFig6RenderWithPlot(t *testing.T) {
	p := testPipeline(t)
	rep, err := RunFig6(p, defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) != 3 {
		t.Fatalf("series = %d, want 3 (utility, lower, upper)", len(rep.Series))
	}
	plain := rep.Render(false)
	plotted := rep.Render(true)
	if strings.Contains(plain, "* utility") {
		t.Error("plain render includes chart legend")
	}
	for _, want := range []string{"* utility", "o lower bound", "+ upper bound", "number of effort intervals m"} {
		if !strings.Contains(plotted, want) {
			t.Errorf("plotted render missing %q", want)
		}
	}
	if rep.String() != plain {
		t.Error("String() must equal Render(false)")
	}
}

func TestTable2RenderWithBars(t *testing.T) {
	p := testPipeline(t)
	rep, err := RunTable2(p, defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.BarLabels) == 0 || len(rep.BarLabels) != len(rep.BarValues) {
		t.Fatalf("bar data malformed: %d labels, %d values", len(rep.BarLabels), len(rep.BarValues))
	}
	plotted := rep.Render(true)
	if !strings.Contains(plotted, "#") {
		t.Errorf("no bars in plotted render:\n%s", plotted)
	}
}

func TestFig8cRenderSeriesPerPolicy(t *testing.T) {
	p := testPipeline(t)
	rep, err := RunFig8c(p, defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) != 3 {
		t.Fatalf("series = %d, want 3 (one per policy)", len(rep.Series))
	}
	plotted := rep.Render(true)
	if !strings.Contains(plotted, "dynamic-contract") || !strings.Contains(plotted, "round") {
		t.Error("fig8c chart missing policy legend or x label")
	}
}

func TestFig8aRenderSeries(t *testing.T) {
	p := testPipeline(t)
	rep, err := RunFig8a(p, defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) != 2 {
		t.Fatalf("series = %d, want 2 (compensation, lower bound)", len(rep.Series))
	}
	// Compensation series must dominate the lower-bound series pointwise.
	comp, lb := rep.Series[0], rep.Series[1]
	for i := range comp.Y {
		if comp.Y[i] < lb.Y[i]-1e-9 {
			t.Errorf("m=%v: mean compensation %v below mean lower bound %v", comp.X[i], comp.Y[i], lb.Y[i])
		}
	}
}
