// Package experiments regenerates every table and figure of the paper's
// evaluation (§V, plus Fig. 6 of §IV) on the synthetic Amazon-like trace.
// Each experiment is a Runner producing a Report — an aligned text table
// with notes — and the package exposes a registry so cmd/experiments and
// the benchmark harness can run them by ID.
//
// Every experiment reads one synthpop.Pipeline, §IV's strategy framework
// (Fig. 4) over a generated trace (the stand-in for "collect"), and
// designs contracts for the agents it yields.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"dyncontract/internal/engine"
	"dyncontract/internal/platform"
	"dyncontract/internal/synth"
	"dyncontract/internal/synthpop"
	"dyncontract/internal/telemetry"
	"dyncontract/internal/textplot"
)

// Report is one experiment's regenerated table.
type Report struct {
	// ID is the registry key ("fig6", "table2", …).
	ID string
	// Title restates what the paper's table/figure shows.
	Title string
	// Header labels the columns.
	Header []string
	// Rows holds formatted cells.
	Rows [][]string
	// Notes records shape checks and caveats.
	Notes []string
	// Series optionally carries line-chart data for figure-style
	// experiments (rendered by Render when plotting is requested).
	Series []textplot.Series
	// XLabel labels the chart's x axis.
	XLabel string
	// BarLabels and BarValues optionally carry bar-chart data for
	// distribution-style experiments.
	BarLabels []string
	BarValues []float64
}

// String renders the report as an aligned text table (no charts).
func (r *Report) String() string {
	return r.Render(false)
}

// Render renders the report; with plot=true, any attached figure data is
// drawn as an ASCII chart below the table.
func (r *Report) Render(plot bool) string {
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if plot {
		if len(r.Series) > 0 {
			chart, err := textplot.Chart(r.Series, textplot.Options{XLabel: r.XLabel})
			if err == nil {
				b.WriteByte('\n')
				b.WriteString(chart)
			}
		}
		if len(r.BarLabels) > 0 {
			bars, err := textplot.Bar(r.BarLabels, r.BarValues, 40)
			if err == nil {
				b.WriteByte('\n')
				b.WriteString(bars)
			}
		}
	}
	return b.String()
}

// Params bundles the model parameters (synthpop.Params; the zero value of
// the rest is the default) with the engine knobs of the simulation-driven
// experiments.
type Params struct {
	synthpop.Params
	// NoDesignCache disables the engine's cross-round design cache in the
	// simulation-driven experiments (fig8c, sensitivity, retention);
	// results are identical either way — designs are deterministic — so
	// this exists for A/B timing and debugging.
	NoDesignCache bool
	// NoRespondMemo disables the engine's cross-round best-response memo
	// in the same experiments; like NoDesignCache it never changes a
	// report — the memo is a pure optimization — and exists for A/B
	// timing and debugging.
	NoRespondMemo bool
	// Metrics, when non-nil, instruments the simulation-driven experiments'
	// engine runs (see engine.Config.Metrics). Reports are identical either
	// way.
	Metrics *telemetry.Registry
}

// DefaultParams forwards to synthpop.DefaultParams; kept only because
// perfbench calls it, until its next change (ROADMAP item 2).
func DefaultParams() synthpop.Params { return synthpop.DefaultParams() }

// BuildPipeline forwards to synthpop.BuildPipeline; kept only because
// perfbench calls it (with the result's BuildPopulation), until its next
// change (ROADMAP item 2).
func BuildPipeline(cfg synth.Config) (*synthpop.Pipeline, error) { return synthpop.BuildPipeline(cfg) }

// runLedger simulates rounds through the engine, attaching a fresh design
// cache and respond memo unless the params disable them.
func runLedger(ctx context.Context, pop *platform.Population, pol platform.Policy, rounds int, params Params) ([]platform.Round, error) {
	cfg := engine.Config{Policy: pol, Rounds: rounds, Metrics: params.Metrics}
	if !params.NoDesignCache {
		cfg.Cache = engine.NewCache()
	}
	if !params.NoRespondMemo {
		cfg.Memo = engine.NewRespondMemo()
	}
	return engine.RunLedger(ctx, pop, cfg)
}

// Runner is one experiment.
type Runner func(p *synthpop.Pipeline, params Params) (*Report, error)

// Registry maps experiment IDs to runners, in presentation order.
func Registry() []struct {
	ID     string
	Run    Runner
	Abouts string
} {
	return []struct {
		ID     string
		Run    Runner
		Abouts string
	}{
		{"fig6", RunFig6, "requester utility vs Theorem 4.1 bounds as m grows"},
		{"table2", RunTable2, "collusive community size distribution"},
		{"fig7", RunFig7, "per-class average effort and feedback"},
		{"table3", RunTable3, "norm of residual for polynomial fits of order 1..6"},
		{"fig8a", RunFig8a, "compensation vs Lemma 4.3 lower bound for m=10,20,40"},
		{"fig8b", RunFig8b, "compensation by worker class for mu=1.0,0.9,0.8"},
		{"fig8c", RunFig8c, "requester utility: dynamic contract vs exclusion baseline"},
		{"ablation", RunAblation, "designed contract vs brute-force grid optimum"},
		{"adversary", RunAdversary, "extension: strategic attackers vs adaptive defense"},
		{"sensitivity", RunSensitivity, "ablation: policy utility vs malice-estimator quality"},
		{"classify", RunClassify, "extension: dynamic contracts on binary labeling"},
		{"dynamics", RunDynamics, "extension: fixed-point convergence of adaptive pricing"},
		{"params", RunParams, "ablation: designed contract vs omega and beta sweeps"},
		{"calibration", RunCalibration, "extension: fitted effort functions scored against the trace"},
		{"budget", RunBudget, "extension: budget-feasible contracts (MCKP over candidate menus)"},
		{"retention", RunRetention, "extension: worker retention under outside options (IR lift)"},
		{"stationarity", RunStationarity, "extension: cross-round stability of fitted effort functions"},
		{"assignment", RunAssignment, "extension: worker-task matching (Hungarian vs greedy)"},
	}
}

// Lookup finds a runner by ID.
func Lookup(id string) (Runner, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}

func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
