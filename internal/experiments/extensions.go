package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"dyncontract/internal/adversary"
	"dyncontract/internal/classify"
	"dyncontract/internal/contract"
	"dyncontract/internal/effort"
	"dyncontract/internal/platform"
	"dyncontract/internal/reputation"
	"dyncontract/internal/synthpop"
	"dyncontract/internal/worker"
)

// extRounds is the horizon for the adversarial extension experiment.
const extRounds = 10

// RunAdversary runs the §VII future-work extension: strategic attackers
// (influence-max, on-off, camouflage) against the static and adaptive
// defenses. Reported per strategy: total requester utility under each
// defense and the attacker's final estimated weight under the adaptive
// one. The expected shape: the adaptive defense never does worse and
// collapses the attacker's weight.
func RunAdversary(p *synthpop.Pipeline, params Params) (*Report, error) {
	part, err := p.Partition(params.M)
	if err != nil {
		return nil, err
	}
	fit, ok := p.ClassFit[worker.Honest]
	if !ok {
		return nil, fmt.Errorf("%w: missing honest fit", synthpop.ErrPipeline)
	}
	psi := fit.Quadratic

	build := func() (*platform.Population, error) {
		pop := &platform.Population{
			Weights:    make(map[string]float64),
			MaliceProb: make(map[string]float64),
			Part:       part,
			Mu:         params.Mu,
		}
		for i := 0; i < 8; i++ {
			a, err := worker.NewHonest(fmt.Sprintf("h%02d", i), psi, params.Beta, part.YMax())
			if err != nil {
				return nil, err
			}
			pop.Agents = append(pop.Agents, a)
			pop.Weights[a.ID] = 1.5
			pop.MaliceProb[a.ID] = 0.05
		}
		m, err := worker.NewMalicious("attacker", psi, params.Beta, params.Omega, part.YMax())
		if err != nil {
			return nil, err
		}
		pop.Agents = append(pop.Agents, m)
		pop.Weights[m.ID] = 1.2
		pop.MaliceProb[m.ID] = 0.1
		return pop, nil
	}

	rep := &Report{
		ID:     "adversary",
		Title:  "strategic attackers vs static and adaptive defenses (extension)",
		Header: []string{"strategy", "static-total", "adaptive-total", "attacker-final-weight", "attacker-final-malice"},
	}
	allRepriced := true
	for _, strat := range []adversary.Strategy{
		adversary.InfluenceMax{},
		adversary.OnOff{Period: 3, Duty: 1},
		adversary.Camouflage{Reveal: 4},
	} {
		runOne := func(adaptive bool) (float64, *adversary.Scenario, error) {
			pop, err := build()
			if err != nil {
				return 0, nil, err
			}
			sc := &adversary.Scenario{
				Pop:        pop,
				Strategies: map[string]adversary.Strategy{"attacker": strat},
			}
			if adaptive {
				tr, err := reputation.NewTracker(reputation.DefaultConfig())
				if err != nil {
					return 0, nil, err
				}
				sc.Tracker = tr
			}
			ledger, err := sc.Run(context.Background(), &platform.DynamicPolicy{}, extRounds)
			if err != nil {
				return 0, nil, err
			}
			return platform.TotalUtility(ledger), sc, nil
		}
		static, _, err := runOne(false)
		if err != nil {
			return nil, fmt.Errorf("adversary %s static: %w", strat.Name(), err)
		}
		adaptive, sc, err := runOne(true)
		if err != nil {
			return nil, fmt.Errorf("adversary %s adaptive: %w", strat.Name(), err)
		}
		finalW := sc.Pop.Weights["attacker"]
		finalE := sc.Pop.MaliceProb["attacker"]
		if finalW >= 1.2 || finalE <= 0.5 {
			allRepriced = false
		}
		rep.Rows = append(rep.Rows, []string{
			strat.Name(), f2(static), f2(adaptive), f3(finalW), f2(finalE),
		})
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"adaptive defense reprices every attacker (weight falls, malice estimate rises): %v", allRepriced))
	return rep, nil
}

// RunClassify runs the classification extension (§VII): designed dynamic
// contracts vs flat payment on a gold-seeded binary labeling batch with a
// biased malicious minority. Expected shape: designed contracts yield
// higher aggregate accuracy and requester utility.
func RunClassify(p *synthpop.Pipeline, params Params) (*Report, error) {
	part, err := effort.NewPartition(10, 1)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	task, err := classify.NewTask(rng, 500, 80, 0.4, 1, params.Mu)
	if err != nil {
		return nil, err
	}
	var labelers []classify.Labeler
	for i := 0; i < 6; i++ {
		labelers = append(labelers, classify.Labeler{
			ID: fmt.Sprintf("h%02d", i), Class: worker.Honest,
			Curve: classify.DefaultCurve(), Beta: 0.2,
		})
	}
	for i := 0; i < 2; i++ {
		labelers = append(labelers, classify.Labeler{
			ID: fmt.Sprintf("m%02d", i), Class: worker.NonCollusiveMalicious,
			Curve: classify.DefaultCurve(), Beta: 0.2, Omega: 0.1, TargetBias: 0.8,
		})
	}

	designed, err := classify.DesignContracts(labelers, task, part, 5)
	if err != nil {
		return nil, err
	}
	resDesigned, err := classify.RunBatch(rand.New(rand.NewSource(p.Seed+1)), labelers, task, designed, part)
	if err != nil {
		return nil, err
	}

	flat := make(map[string]*contract.PiecewiseLinear, len(labelers))
	for _, l := range labelers {
		psi, err := l.Curve.FeedbackPsi(task.Gold, part.YMax())
		if err != nil {
			return nil, err
		}
		flat[l.ID], err = contract.Flat(psi.Eval(0), psi.Eval(part.YMax()), 1)
		if err != nil {
			return nil, err
		}
	}
	resFlat, err := classify.RunBatch(rand.New(rand.NewSource(p.Seed+1)), labelers, task, flat, part)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:     "classify",
		Title:  "dynamic contracts on binary labeling vs flat pay (extension)",
		Header: []string{"policy", "aggregate-accuracy", "total-pay", "requester-utility"},
		Rows: [][]string{
			{"designed", f3(resDesigned.AggregateAccuracy), f2(resDesigned.TotalPay), f2(resDesigned.RequesterUtility)},
			{"flat-pay", f3(resFlat.AggregateAccuracy), f2(resFlat.TotalPay), f2(resFlat.RequesterUtility)},
		},
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"designed contracts beat flat pay on accuracy and utility: %v",
		resDesigned.AggregateAccuracy > resFlat.AggregateAccuracy &&
			resDesigned.RequesterUtility > resFlat.RequesterUtility))
	return rep, nil
}
