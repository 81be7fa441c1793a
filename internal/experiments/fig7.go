package experiments

import (
	"fmt"

	"dyncontract/internal/stats"
	"dyncontract/internal/synthpop"
	"dyncontract/internal/worker"
)

// RunFig7 regenerates Fig. 7: average effort level and average feedback for
// honest, non-collusive malicious (NCM), and collusive malicious (CM)
// workers. The paper's observation — effort levels are similar across the
// three classes while CM feedback is much higher (partners upvote each
// other) — is asserted in the notes.
func RunFig7(p *synthpop.Pipeline, _ Params) (*Report, error) {
	rep := &Report{
		ID:     "fig7",
		Title:  "per-class average effort and feedback",
		Header: []string{"class", "workers", "avg-effort", "avg-feedback"},
	}
	type classRow struct {
		name  string
		class worker.Class
	}
	rows := []classRow{
		{"honest", worker.Honest},
		{"non-collusive-malicious", worker.NonCollusiveMalicious},
		{"collusive-malicious", worker.CollusiveMalicious},
	}
	means := make(map[worker.Class][2]float64, len(rows))
	for _, cr := range rows {
		efforts, feedbacks, err := p.ClassPoints(cr.class)
		if err != nil {
			return nil, err
		}
		if len(efforts) == 0 {
			return nil, fmt.Errorf("%w: class %v has no reviews", synthpop.ErrPipeline, cr.class)
		}
		meanEffort, err := stats.Mean(efforts)
		if err != nil {
			return nil, err
		}
		meanFeedback, err := stats.Mean(feedbacks)
		if err != nil {
			return nil, err
		}
		means[cr.class] = [2]float64{meanEffort, meanFeedback}
		rep.Rows = append(rep.Rows, []string{
			cr.name, fmt.Sprintf("%d", classWorkerCount(p, cr.class)),
			f3(meanEffort), f3(meanFeedback),
		})
		rep.BarLabels = append(rep.BarLabels, cr.name+" feedback")
		rep.BarValues = append(rep.BarValues, meanFeedback)
	}
	cmFb := means[worker.CollusiveMalicious][1]
	hFb := means[worker.Honest][1]
	ncmFb := means[worker.NonCollusiveMalicious][1]
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"CM feedback exceeds honest and NCM: %v (paper: collusive workers have much higher feedback)",
		cmFb > hFb && cmFb > ncmFb))
	hEff := means[worker.Honest][0]
	cmEff := means[worker.CollusiveMalicious][0]
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"effort levels comparable across classes (honest %.2f vs CM %.2f): %v (paper: similar effort levels)",
		hEff, cmEff, cmEff < 2*hEff && hEff < 2*cmEff))
	return rep, nil
}

func classWorkerCount(p *synthpop.Pipeline, class worker.Class) int {
	switch class {
	case worker.Honest:
		return len(p.HonestIDs)
	case worker.NonCollusiveMalicious:
		return len(p.NCMIDs)
	case worker.CollusiveMalicious:
		return len(p.CMIDs)
	default:
		return 0
	}
}
