package experiments

import (
	"fmt"

	"dyncontract/internal/core"
	"dyncontract/internal/optimal"
	"dyncontract/internal/synthpop"
	"dyncontract/internal/worker"
)

// ablationMs are the (necessarily small) partition sizes the grid search
// can afford.
var ablationMs = []int{2, 3, 4, 5}

// ablationGrid is the slope-grid resolution per piece.
const ablationGrid = 10

// RunAblation validates the near-optimality claim empirically: on small
// instances, compare the candidate algorithm's requester utility against an
// independent brute-force grid search over monotone piecewise-linear
// contracts (internal/optimal). The paper proves LB/UB bounds (Theorem
// 4.1); this experiment measures the actual gap.
func RunAblation(p *synthpop.Pipeline, params Params) (*Report, error) {
	fit, ok := p.ClassFit[worker.Honest]
	if !ok {
		return nil, fmt.Errorf("%w: missing honest fit", synthpop.ErrPipeline)
	}
	rep := &Report{
		ID:     "ablation",
		Title:  "designed contract vs brute-force grid optimum (single honest worker)",
		Header: []string{"m", "designed", "grid-optimum", "ratio", "upper-bound", "grid-evals"},
	}
	worst := 1.0
	for _, m := range ablationMs {
		part, err := p.Partition(m)
		if err != nil {
			return nil, err
		}
		a, err := worker.NewHonest("ablation-honest", fit.Quadratic, params.Beta, part.YMax())
		if err != nil {
			return nil, err
		}
		cfg := core.Config{Part: part, Mu: params.Mu, W: 1}
		designed, err := core.DesignInto(a, cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("ablation: design m=%d: %w", m, err)
		}
		grid, err := optimal.Search(a, cfg, optimal.Options{SlopeGrid: ablationGrid})
		if err != nil {
			return nil, fmt.Errorf("ablation: grid m=%d: %w", m, err)
		}
		ratio := 1.0
		if grid.RequesterUtility > 0 {
			ratio = designed.RequesterUtility / grid.RequesterUtility
		}
		if ratio < worst {
			worst = ratio
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", m),
			f3(designed.RequesterUtility),
			f3(grid.RequesterUtility),
			f3(ratio),
			f3(designed.UpperBound),
			fmt.Sprintf("%d", grid.Evaluated),
		})
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"worst designed/grid ratio: %.3f (near-optimal when close to 1; grid itself is only a lower bound on the true optimum)", worst))
	return rep, nil
}
