package experiments

import (
	"fmt"

	"dyncontract/internal/assignment"
	"dyncontract/internal/core"
	"dyncontract/internal/synthpop"
)

// assignTaskValues are the heterogeneous task values for the assignment
// experiment: some tasks are worth much more to the requester.
var assignTaskValues = []float64{2.0, 1.5, 1.2, 1.0, 0.8, 0.6, 0.5, 0.4}

// assignWorkers caps the worker sample (tasks are scarcer than workers, so
// matching is the binding decision).
const assignWorkers = 24

// RunAssignment evaluates the worker–task matching extension (related
// work [22]): tasks are heterogeneous in value and in fit, so before
// designing contracts the requester must decide who works on what. The
// per-(worker, task) value is the contract-design utility scaled by the
// task's value and a worker–task affinity; the exact Hungarian matching is
// compared against greedy. Expected shapes: the optimal matching never
// loses to greedy, and both beat a naive index-order assignment.
func RunAssignment(p *synthpop.Pipeline, params Params) (*Report, error) {
	part, err := p.Partition(params.M)
	if err != nil {
		return nil, err
	}
	ids := synthpop.SampleIDs(p.HonestIDs, assignWorkers)
	if len(ids) == 0 {
		return nil, fmt.Errorf("%w: no workers to assign", synthpop.ErrPipeline)
	}

	// Base utility per worker from its designed contract.
	base := make([]float64, len(ids))
	for i, id := range ids {
		a, err := p.Agent(id, params.Params, part)
		if err != nil {
			return nil, err
		}
		w, err := p.WorkerWeight(id, params.Params)
		if err != nil {
			return nil, err
		}
		if w <= 0 {
			w = 0.01
		}
		res, err := core.DesignInto(a, core.Config{Part: part, Mu: params.Mu, W: w}, nil)
		if err != nil {
			return nil, fmt.Errorf("assignment design %s: %w", id, err)
		}
		base[i] = res.RequesterUtility
	}

	// Value matrix: base utility × task value × deterministic affinity in
	// [0.5, 1.5] (a worker suits some task domains better than others).
	value := make([][]float64, len(ids))
	for wi := range ids {
		value[wi] = make([]float64, len(assignTaskValues))
		for ti, tv := range assignTaskValues {
			affinity := 0.5 + float64((wi*7+ti*13)%11)/10.0
			value[wi][ti] = base[wi] * tv * affinity
		}
	}

	optimal, err := assignment.Optimal(value)
	if err != nil {
		return nil, err
	}
	greedy, err := assignment.Greedy(value)
	if err != nil {
		return nil, err
	}
	// Naive baseline: worker i takes task i while tasks last.
	naive := 0.0
	for wi := 0; wi < len(ids) && wi < len(assignTaskValues); wi++ {
		if value[wi][wi] > 0 {
			naive += value[wi][wi]
		}
	}

	rep := &Report{
		ID:     "assignment",
		Title:  fmt.Sprintf("worker-task matching over %d workers, %d heterogeneous tasks (extension)", len(ids), len(assignTaskValues)),
		Header: []string{"matcher", "total-value", "vs-optimal"},
		Rows: [][]string{
			{"hungarian (optimal)", f2(optimal.TotalValue), "1.000"},
			{"greedy", f2(greedy.TotalValue), f3(greedy.TotalValue / optimal.TotalValue)},
			{"naive (index order)", f2(naive), f3(naive / optimal.TotalValue)},
		},
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"optimal >= greedy >= naive: %v",
		optimal.TotalValue >= greedy.TotalValue-1e-9 && greedy.TotalValue >= naive-1e-9))
	return rep, nil
}
