package experiments

import (
	"fmt"

	"dyncontract/internal/replay"
	"dyncontract/internal/synthpop"
	"dyncontract/internal/worker"
)

// RunCalibration replays the trace through the fitted per-class effort
// functions (internal/replay) and reports how well each ψ predicts
// observed feedback — the absolute-terms complement to Table III's
// relative NoR comparison. Expected shape: every class fit beats the
// constant predictor (positive skill) with near-zero bias.
func RunCalibration(p *synthpop.Pipeline, _ Params) (*Report, error) {
	rep := &Report{
		ID:     "calibration",
		Title:  "fitted effort-function calibration vs the trace (extension)",
		Header: []string{"class", "reviews", "mae", "bias", "rmse", "within-1-upvote", "skill", "corr"},
	}
	allSkilled := true
	for _, cls := range []worker.Class{worker.Honest, worker.NonCollusiveMalicious, worker.CollusiveMalicious} {
		efforts, feedbacks, err := p.ClassPoints(cls)
		if err != nil {
			return nil, err
		}
		fit, ok := p.ClassFit[cls]
		if !ok {
			return nil, fmt.Errorf("%w: missing fit for %v", synthpop.ErrPipeline, cls)
		}
		cal, err := replay.Score(fit.Quadratic, efforts, feedbacks)
		if err != nil {
			return nil, fmt.Errorf("calibration %v: %w", cls, err)
		}
		if cal.Skill() <= 0 {
			allSkilled = false
		}
		rep.Rows = append(rep.Rows, []string{
			cls.String(), fmt.Sprintf("%d", cal.N),
			f3(cal.MAE), f3(cal.Bias), f3(cal.RMSE),
			fmt.Sprintf("%.0f%%", 100*cal.Within1), f3(cal.Skill()), f3(cal.Correlation),
		})
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"every class fit beats the constant predictor (positive skill): %v", allSkilled))
	return rep, nil
}
