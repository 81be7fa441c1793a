package experiments

import (
	"fmt"
	"sort"

	"dyncontract/internal/core"
	"dyncontract/internal/effort"
	"dyncontract/internal/stats"
	"dyncontract/internal/synthpop"
	"dyncontract/internal/textplot"
	"dyncontract/internal/worker"
)

// fig8aMs are the partition sizes compared in Fig. 8(a).
var fig8aMs = []int{10, 20, 40}

// fig8aWorkers caps the number of selected workers, as in the paper
// ("we first select 200 honest workers").
const fig8aWorkers = 200

// fig8aMinReviews is the selection threshold ("at least 20 reviews").
const fig8aMinReviews = 20

// RunFig8a regenerates Fig. 8(a): the compensation paid to up to 200
// prolific honest workers under the designed contract, against Lemma 4.3's
// lower bound, for m = 10, 20, 40 intervals. The paper's observation — the
// gap between compensation and its lower bound shrinks as the partition is
// refined — is asserted in the notes.
//
// Per-worker variation comes from per-worker effort functions: each
// selected worker has ≥ 20 reviews, enough to fit an individual concave
// quadratic; workers whose individual fit is rejected fall back to the
// class fit.
func RunFig8a(p *synthpop.Pipeline, params Params) (*Report, error) {
	ids := prolificHonest(p)
	if len(ids) == 0 {
		return nil, fmt.Errorf("%w: no honest workers with >= %d reviews", synthpop.ErrPipeline, fig8aMinReviews)
	}
	if len(ids) > fig8aWorkers {
		ids = ids[:fig8aWorkers]
	}

	rep := &Report{
		ID:     "fig8a",
		Title:  fmt.Sprintf("compensation vs Lemma 4.3 lower bound (%d honest workers, >=%d reviews)", len(ids), fig8aMinReviews),
		Header: []string{"m", "mean-comp", "p5-comp", "p95-comp", "mean-lower", "mean-gap"},
	}

	var prevGap = -1.0
	shrinking := true
	var ms, meanComps, meanLowers []float64
	for _, m := range fig8aMs {
		part, err := p.Partition(m)
		if err != nil {
			return nil, err
		}
		var comps, lowers, gaps []float64
		for _, id := range ids {
			psi := workerPsi(p, id, part)
			a, err := worker.NewHonest(id, psi, params.Beta, part.YMax())
			if err != nil {
				return nil, fmt.Errorf("fig8a: agent %s: %w", id, err)
			}
			w, err := p.WorkerWeight(id, params.Params)
			if err != nil {
				return nil, err
			}
			if w <= 0 {
				continue // requester would not contract this worker at all
			}
			res, err := core.DesignInto(a, core.Config{Part: part, Mu: params.Mu, W: w}, nil)
			if err != nil {
				return nil, fmt.Errorf("fig8a: design %s: %w", id, err)
			}
			lb := core.CompensationLowerBound(a, part, res.KOpt)
			comps = append(comps, res.Response.Compensation)
			lowers = append(lowers, lb)
			gaps = append(gaps, res.Response.Compensation-lb)
		}
		if len(comps) == 0 {
			return nil, fmt.Errorf("%w: all workers skipped at m=%d", synthpop.ErrPipeline, m)
		}
		sum, err := stats.Summarize(comps)
		if err != nil {
			return nil, err
		}
		meanLB, _ := stats.Mean(lowers)
		meanGap, _ := stats.Mean(gaps)
		if prevGap >= 0 && meanGap > prevGap+1e-9 {
			shrinking = false
		}
		prevGap = meanGap
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", m), f3(sum.Mean), f3(sum.P5), f3(sum.P95), f3(meanLB), f3(meanGap),
		})
		ms = append(ms, float64(m))
		meanComps = append(meanComps, sum.Mean)
		meanLowers = append(meanLowers, meanLB)
	}
	rep.Series = []textplot.Series{
		{Name: "mean compensation", X: ms, Y: meanComps},
		{Name: "mean lower bound", X: ms, Y: meanLowers},
	}
	rep.XLabel = "number of effort intervals m"
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"mean gap to the lower bound shrinks as m grows: %v (paper: compensation converges to optimal as the partition densifies)",
		shrinking))
	return rep, nil
}

// prolificHonest returns honest workers with at least fig8aMinReviews
// reviews, sorted by ID for determinism.
func prolificHonest(p *synthpop.Pipeline) []string {
	prolific := p.Trace.WorkersWithAtLeast(fig8aMinReviews)
	honest := make(map[string]bool, len(p.HonestIDs))
	for _, id := range p.HonestIDs {
		honest[id] = true
	}
	var out []string
	for _, id := range prolific {
		if honest[id] {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// workerPsi fits an individual effort function from the worker's own
// reviews, falling back to the class fit when the individual fit fails or
// is not increasing across the partition range.
func workerPsi(p *synthpop.Pipeline, id string, part effort.Partition) effort.Quadratic {
	classPsi := p.ClassFit[p.ClassOf(id)].Quadratic
	raw, fb := p.Trace.EffortFeedbackPoints([]string{id})
	if len(raw) < 5 {
		return classPsi
	}
	efforts := make([]float64, len(raw))
	for i, y := range raw {
		efforts[i] = y / p.EffortScale
	}
	fit, err := effort.FitConcaveQuadratic(efforts, fb)
	if err != nil {
		return classPsi
	}
	if fit.Quadratic.Validate(part.YMax()) != nil {
		return classPsi
	}
	return fit.Quadratic
}
