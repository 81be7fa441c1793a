package experiments

import (
	"context"
	"fmt"

	"dyncontract/internal/baseline"
	"dyncontract/internal/cluster"
	"dyncontract/internal/platform"
	"dyncontract/internal/synthpop"
)

// sensitivityRounds is the simulation horizon per estimator setting.
const sensitivityRounds = 3

// RunSensitivity is an ablation on a design choice DESIGN.md calls out:
// the requester's reliance on an external malice estimator ([14], [15]).
// It sweeps estimator quality from perfect to poor and compares the
// dynamic contract against the exclusion baseline at each level.
//
// Expected shape: the dynamic contract dominates at every quality level,
// and its margin widens as the estimator degrades — exclusion drops
// honest workers on false positives and keeps undetected attackers at
// full weight, while the dynamic contract's penalties degrade gracefully.
func RunSensitivity(p *synthpop.Pipeline, params Params) (*Report, error) {
	settings := []struct {
		label  string
		tp, fp float64
	}{
		{"perfect", 1.0, 0.0},
		{"good", 0.9, 0.05},
		{"mediocre", 0.7, 0.15},
		{"poor", 0.55, 0.30},
	}
	rep := &Report{
		ID:     "sensitivity",
		Title:  "policy utility vs malice-estimator quality (ablation)",
		Header: []string{"estimator", "dynamic", "exclusion", "dynamic/exclusion"},
	}
	ctx := context.Background()
	dominates := true
	var ratios []float64
	for _, s := range settings {
		est := cluster.Estimator{TruePositive: s.tp, FalsePositive: s.fp, Jitter: 0.04, Seed: p.Seed}
		probs, err := est.Estimate(p.Trace)
		if err != nil {
			return nil, fmt.Errorf("sensitivity %s: %w", s.label, err)
		}
		// Re-run the pipeline's belief-dependent pieces with the variant
		// estimates: shallow-copy the pipeline and swap MaliceProb, which
		// WorkerWeight and BuildPopulation consume.
		variant := *p
		variant.MaliceProb = probs

		pop, err := variant.BuildPopulation(params.Params, 150)
		if err != nil {
			return nil, fmt.Errorf("sensitivity %s: %w", s.label, err)
		}
		dynLedger, err := runLedger(ctx, pop, &platform.DynamicPolicy{}, sensitivityRounds, params)
		if err != nil {
			return nil, fmt.Errorf("sensitivity %s dynamic: %w", s.label, err)
		}
		exclLedger, err := runLedger(ctx, pop, &baseline.ExcludeMalicious{Threshold: 0.5}, sensitivityRounds, params)
		if err != nil {
			return nil, fmt.Errorf("sensitivity %s exclusion: %w", s.label, err)
		}
		dyn := platform.TotalUtility(dynLedger)
		excl := platform.TotalUtility(exclLedger)
		ratio := 0.0
		if excl != 0 {
			ratio = dyn / excl
		}
		ratios = append(ratios, ratio)
		if dyn <= excl {
			dominates = false
		}
		rep.Rows = append(rep.Rows, []string{s.label, f2(dyn), f2(excl), f3(ratio)})
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"dynamic contract dominates exclusion at every estimator quality: %v", dominates))
	if len(ratios) >= 2 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"margin widens as the estimator degrades (ratio %.3f at perfect vs %.3f at poor): %v",
			ratios[0], ratios[len(ratios)-1], ratios[len(ratios)-1] >= ratios[0]))
	}
	return rep, nil
}
