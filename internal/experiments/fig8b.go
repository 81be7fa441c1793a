package experiments

import (
	"fmt"

	"dyncontract/internal/core"
	"dyncontract/internal/stats"
	"dyncontract/internal/synthpop"
	"dyncontract/internal/worker"
)

// fig8bMus are the compensation weights compared in Fig. 8(b).
var fig8bMus = []float64{1.0, 0.9, 0.8}

// fig8bMaxPerClass caps per-class sample sizes to keep the experiment fast
// at paper scale; sampling is deterministic (strided over sorted IDs).
const fig8bMaxPerClass = 300

// RunFig8b regenerates Fig. 8(b): the average, 5th-percentile, and
// 95th-percentile compensation paid to honest workers, non-collusive
// malicious workers, and collusive malicious workers, for μ = 1.0, 0.9,
// 0.8. The paper's two observations are asserted in the notes:
//
//  1. compensation increases as μ decreases (a generous requester), and
//  2. honest > non-collusive malicious > collusive malicious compensation,
//     driven by the Eq. (5) penalties κ·e^mal and γ·A_i.
//
// Collusive communities are designed for as meta-workers; each member's
// reported compensation is the community payment split evenly.
func RunFig8b(p *synthpop.Pipeline, params Params) (*Report, error) {
	rep := &Report{
		ID:     "fig8b",
		Title:  "compensation by worker class for varying mu",
		Header: []string{"mu", "class", "workers", "mean", "p5", "p95"},
	}

	classMeans := make(map[float64]map[worker.Class]float64, len(fig8bMus))
	for _, mu := range fig8bMus {
		muParams := params
		muParams.Mu = mu
		byClass, err := classCompensations(p, muParams)
		if err != nil {
			return nil, err
		}
		classMeans[mu] = make(map[worker.Class]float64, 3)
		for _, cls := range []worker.Class{worker.Honest, worker.NonCollusiveMalicious, worker.CollusiveMalicious} {
			comps := byClass[cls]
			if len(comps) == 0 {
				return nil, fmt.Errorf("%w: class %v yielded no compensations", synthpop.ErrPipeline, cls)
			}
			sum, err := stats.Summarize(comps)
			if err != nil {
				return nil, err
			}
			classMeans[mu][cls] = sum.Mean
			rep.Rows = append(rep.Rows, []string{
				f2(mu), cls.String(), fmt.Sprintf("%d", sum.N), f3(sum.Mean), f3(sum.P5), f3(sum.P95),
			})
			if mu == 1.0 {
				rep.BarLabels = append(rep.BarLabels, cls.String())
				rep.BarValues = append(rep.BarValues, sum.Mean)
			}
		}
	}

	// Observation (2): class ordering at each mu.
	orderingHolds := true
	for _, mu := range fig8bMus {
		m := classMeans[mu]
		if !(m[worker.Honest] >= m[worker.NonCollusiveMalicious] &&
			m[worker.NonCollusiveMalicious] >= m[worker.CollusiveMalicious]) {
			orderingHolds = false
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"honest >= NCM >= CM mean compensation at every mu: %v (paper observation 2)", orderingHolds))

	// Observation (1): lower mu pays more, per class.
	generous := true
	for _, cls := range []worker.Class{worker.Honest, worker.NonCollusiveMalicious, worker.CollusiveMalicious} {
		if !(classMeans[0.8][cls] >= classMeans[1.0][cls]-1e-9) {
			generous = false
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"compensation rises as mu falls (mu=0.8 vs mu=1.0, per class): %v (paper observation 1)", generous))
	return rep, nil
}

// classCompensations designs contracts for (a sample of) each class and
// returns per-class per-worker compensations.
func classCompensations(p *synthpop.Pipeline, params Params) (map[worker.Class][]float64, error) {
	pt, err := p.Partition(params.M)
	if err != nil {
		return nil, err
	}
	out := make(map[worker.Class][]float64, 3)

	design := func(a *worker.Agent, w float64) (float64, error) {
		if w <= 0 {
			// The requester values this worker's feedback non-positively:
			// the cheapest contract is offered and the worker best-responds
			// with (near) zero effort, earning (near) zero pay.
			w = 0.01
		}
		res, err := core.DesignInto(a, core.Config{Part: pt, Mu: params.Mu, W: w}, nil)
		if err != nil {
			return 0, err
		}
		return res.Response.Compensation, nil
	}

	for _, id := range synthpop.SampleIDs(p.HonestIDs, fig8bMaxPerClass) {
		a, err := p.Agent(id, params.Params, pt)
		if err != nil {
			return nil, err
		}
		w, err := p.WorkerWeight(id, params.Params)
		if err != nil {
			return nil, err
		}
		comp, err := design(a, w)
		if err != nil {
			return nil, fmt.Errorf("fig8b honest %s: %w", id, err)
		}
		out[worker.Honest] = append(out[worker.Honest], comp)
	}
	for _, id := range synthpop.SampleIDs(p.NCMIDs, fig8bMaxPerClass) {
		a, err := p.Agent(id, params.Params, pt)
		if err != nil {
			return nil, err
		}
		w, err := p.WorkerWeight(id, params.Params)
		if err != nil {
			return nil, err
		}
		comp, err := design(a, w)
		if err != nil {
			return nil, fmt.Errorf("fig8b ncm %s: %w", id, err)
		}
		out[worker.NonCollusiveMalicious] = append(out[worker.NonCollusiveMalicious], comp)
	}
	for ci := range p.Communities {
		a, err := p.CommunityAgent(ci, params.Params, pt)
		if err != nil {
			return nil, err
		}
		// Community weight: average member weight (members share signals).
		var wSum float64
		for _, id := range p.Communities[ci].Members {
			w, err := p.WorkerWeight(id, params.Params)
			if err != nil {
				return nil, err
			}
			wSum += w
		}
		wAvg := wSum / float64(p.Communities[ci].Size())
		comp, err := design(a, wAvg)
		if err != nil {
			return nil, fmt.Errorf("fig8b community %d: %w", ci, err)
		}
		// Per-member share of the community payment.
		share := comp / float64(p.Communities[ci].Size())
		for range p.Communities[ci].Members {
			out[worker.CollusiveMalicious] = append(out[worker.CollusiveMalicious], share)
		}
	}
	return out, nil
}
