package experiments

import (
	"fmt"

	"dyncontract/internal/core"
	"dyncontract/internal/synthpop"
	"dyncontract/internal/textplot"
	"dyncontract/internal/worker"
)

// RunParams is the mechanism ablation: it sweeps the two worker-side
// parameters the model turns on and reports how the designed contract
// reacts.
//
//   - ω (malicious feedback weight): as ω grows, the worker's intrinsic
//     motivation substitutes for pay — compensation must fall monotonically
//     at equal induced effort. This is the analytic heart of Fig. 8(b)'s
//     "malicious workers get paid less".
//   - β (effort cost): as β grows, effort gets more expensive and the
//     requester induces less of it, paying more per achieved feedback.
func RunParams(p *synthpop.Pipeline, params Params) (*Report, error) {
	part, err := p.Partition(params.M)
	if err != nil {
		return nil, err
	}
	fit, ok := p.ClassFit[worker.Honest]
	if !ok {
		return nil, fmt.Errorf("%w: missing honest fit", synthpop.ErrPipeline)
	}
	psi := fit.Quadratic

	rep := &Report{
		ID:     "params",
		Title:  "mechanism ablation: designed contract vs omega and beta (extension)",
		Header: []string{"sweep", "value", "k_opt", "effort", "feedback", "pay", "requester-utility"},
	}

	// ω sweep at fixed β: intrinsic motivation displaces pay.
	omegas := []float64{0, 0.25, 0.5, 1, 2}
	var omegaXs, omegaPay []float64
	payMonotone := true
	prevPay := -1.0
	for _, omega := range omegas {
		var a *worker.Agent
		var err error
		if omega == 0 {
			a, err = worker.NewHonest("sweep", psi, params.Beta, part.YMax())
		} else {
			a, err = worker.NewMalicious("sweep", psi, params.Beta, omega, part.YMax())
		}
		if err != nil {
			return nil, err
		}
		res, err := core.DesignInto(a, core.Config{Part: part, Mu: params.Mu, W: 1}, nil)
		if err != nil {
			return nil, fmt.Errorf("params omega=%v: %w", omega, err)
		}
		pay := res.Response.Compensation
		if prevPay >= 0 && pay > prevPay+1e-9 {
			payMonotone = false
		}
		prevPay = pay
		omegaXs = append(omegaXs, omega)
		omegaPay = append(omegaPay, pay)
		rep.Rows = append(rep.Rows, []string{
			"omega", f2(omega), fmt.Sprintf("%d", res.KOpt),
			f2(res.Response.Effort), f2(res.Response.Feedback), f3(pay), f3(res.RequesterUtility),
		})
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"pay falls monotonically as omega rises (intrinsic motivation displaces compensation): %v", payMonotone))

	// β sweep at ω = 0: costlier effort ⇒ less induced effort.
	betas := []float64{0.5, 1, 2, 4}
	effortMonotone := true
	prevEffort := 1e300
	for _, beta := range betas {
		a, err := worker.NewHonest("sweep", psi, beta, part.YMax())
		if err != nil {
			return nil, err
		}
		res, err := core.DesignInto(a, core.Config{Part: part, Mu: params.Mu, W: 1}, nil)
		if err != nil {
			return nil, fmt.Errorf("params beta=%v: %w", beta, err)
		}
		if res.Response.Effort > prevEffort+1e-9 {
			effortMonotone = false
		}
		prevEffort = res.Response.Effort
		rep.Rows = append(rep.Rows, []string{
			"beta", f2(beta), fmt.Sprintf("%d", res.KOpt),
			f2(res.Response.Effort), f2(res.Response.Feedback), f3(res.Response.Compensation), f3(res.RequesterUtility),
		})
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"induced effort falls monotonically as beta rises (costlier effort): %v", effortMonotone))

	rep.Series = []textplot.Series{{Name: "pay vs omega", X: omegaXs, Y: omegaPay}}
	rep.XLabel = "omega"
	return rep, nil
}
