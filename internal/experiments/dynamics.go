package experiments

import (
	"context"
	"fmt"

	"dyncontract/internal/dynamics"
	"dyncontract/internal/platform"
	"dyncontract/internal/reputation"
	"dyncontract/internal/synthpop"
	"dyncontract/internal/textplot"
)

// RunDynamics analyzes the stability of the closed adaptive loop
// (beliefs → contracts → responses → observations → beliefs): starting
// from deliberately mis-calibrated beliefs, how fast does the marketplace
// reach steady-state pricing? Expected shape: the big correction happens
// in the first observed round and the weight movement contracts
// geometrically to a fixed point.
func RunDynamics(p *synthpop.Pipeline, params Params) (*Report, error) {
	pop, err := p.BuildPopulation(params.Params, 80)
	if err != nil {
		return nil, err
	}
	// Scramble the initial beliefs: halve every weight and inflate every
	// malice estimate, simulating a cold-started requester.
	for id := range pop.Weights {
		pop.Weights[id] *= 0.5
		if pop.MaliceProb[id] < 0.5 {
			pop.MaliceProb[id] = 0.5
		}
	}
	tracker, err := reputation.NewTracker(reputation.DefaultConfig())
	if err != nil {
		return nil, err
	}
	res, err := dynamics.Run(context.Background(), pop, &platform.DynamicPolicy{}, tracker,
		dynamics.Config{MaxRounds: 30, Tol: 1e-4})
	if err != nil {
		return nil, fmt.Errorf("dynamics: %w", err)
	}

	rep := &Report{
		ID:     "dynamics",
		Title:  "fixed-point convergence of the adaptive pricing loop (extension)",
		Header: []string{"round", "weight-delta", "requester-utility"},
	}
	rounds := make([]float64, res.Rounds)
	for r := 0; r < res.Rounds; r++ {
		rounds[r] = float64(r)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", r), fmt.Sprintf("%.5f", res.WeightDeltas[r]), f2(res.Utilities[r]),
		})
	}
	rep.Series = []textplot.Series{{Name: "requester utility", X: rounds, Y: res.Utilities}}
	rep.XLabel = "round"
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"loop converged to a pricing fixed point: %v (at round %d of max 30)", res.Converged, res.ConvergedAt))
	if res.Rounds >= 2 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"mispriced round 0 corrected after first observation (utility %.1f -> %.1f): %v",
			res.Utilities[0], res.Utilities[res.Rounds-1], res.Utilities[res.Rounds-1] > res.Utilities[0]))
	}
	return rep, nil
}
