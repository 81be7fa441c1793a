// Package dynamics analyzes the closed loop of the repeated Stackelberg
// game: beliefs → contracts → best responses → observations → beliefs.
//
// The paper designs each round's contracts from the previous round's
// feedback but does not study whether the coupled system settles. This
// package iterates the loop round by round, measures how much the
// requester's per-worker weights move, and reports whether (and how fast)
// the marketplace reaches a fixed point — the stability story behind
// "dynamic contracts converge to steady-state pricing".
package dynamics

import (
	"context"
	"errors"
	"fmt"
	"math"

	"dyncontract/internal/engine"
	"dyncontract/internal/platform"
	"dyncontract/internal/reputation"
	"dyncontract/internal/telemetry"
)

// ErrBadRun is returned for invalid run parameters.
var ErrBadRun = errors.New("dynamics: invalid run parameters")

// ObservationFunc converts a completed round into tracker observations.
// The default (HonestObservations) assumes behaviour matches the model:
// feedback within expectations, no promotional flags.
type ObservationFunc func(round platform.Round) []reputation.Observation

// HonestObservations reports every included agent as clean with the given
// accuracy distance.
func HonestObservations(dist float64) ObservationFunc {
	return func(round platform.Round) []reputation.Observation {
		obs := make([]reputation.Observation, 0, len(round.Outcomes))
		for _, oc := range round.Outcomes {
			if oc.Excluded {
				continue
			}
			obs = append(obs, reputation.Observation{
				WorkerID:    oc.AgentID,
				ReviewScore: dist,
				ExpertScore: 0,
				Partners:    oc.Size - 1,
			})
		}
		return obs
	}
}

// Config tunes the fixed-point iteration.
type Config struct {
	// MaxRounds bounds the iteration (≥ 2).
	MaxRounds int
	// Tol is the convergence threshold on the max per-worker weight
	// change between consecutive rounds.
	Tol float64
	// Observe converts rounds into tracker observations; nil means
	// HonestObservations(0.3).
	Observe ObservationFunc
	// Metrics, when non-nil, instruments the underlying engine run (see
	// engine.Config.Metrics). The trajectory is identical either way.
	Metrics *telemetry.Registry
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MaxRounds < 2 {
		return fmt.Errorf("maxRounds=%d < 2: %w", c.MaxRounds, ErrBadRun)
	}
	if !(c.Tol > 0) {
		return fmt.Errorf("tol=%v must be positive: %w", c.Tol, ErrBadRun)
	}
	return nil
}

// Result describes the loop's trajectory.
type Result struct {
	// Converged reports whether the weight movement fell below Tol.
	Converged bool
	// Rounds is the number of rounds executed.
	Rounds int
	// ConvergedAt is the first round whose weight delta was below Tol
	// (−1 when never).
	ConvergedAt int
	// WeightDeltas is the max per-worker weight change after each round
	// (length Rounds; the first entry compares round 0's update to the
	// initial beliefs).
	WeightDeltas []float64
	// Utilities is the requester's per-round utility.
	Utilities []float64
	// FinalWeights is the final belief state.
	FinalWeights map[string]float64
}

// Run iterates the closed loop on the population until the weights stop
// moving or MaxRounds is reached. The population's weights and malice
// probabilities are updated in place, exactly as a live deployment would.
//
// The loop runs on internal/engine with a streaming observer: each
// completed round feeds the tracker and refreshes the beliefs before the
// next round's contracts are designed, and no ledger accumulates. A design
// cache is attached, so once the weights settle near the fixed point the
// per-round contract designs dedup to (nearly) zero core.Design calls.
func Run(ctx context.Context, pop *platform.Population, pol platform.Policy, tracker *reputation.Tracker, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tracker == nil {
		return nil, fmt.Errorf("nil tracker: %w", ErrBadRun)
	}
	observe := cfg.Observe
	if observe == nil {
		observe = HonestObservations(0.3)
	}

	res := &Result{ConvergedAt: -1, FinalWeights: make(map[string]float64)}
	hooks := engine.Hooks{
		RoundEnd: func(round platform.Round) error {
			r := round.Index
			res.Utilities = append(res.Utilities, round.Utility)
			if err := tracker.Observe(observe(round)); err != nil {
				return fmt.Errorf("dynamics: observe round %d: %w", r, err)
			}
			// Belief refresh; track the largest movement.
			delta := 0.0
			for _, a := range pop.Agents {
				w, err := tracker.Weight(a.ID)
				if err != nil {
					return fmt.Errorf("dynamics: weight for %s: %w", a.ID, err)
				}
				if d := math.Abs(w - pop.Weights[a.ID]); d > delta {
					delta = d
				}
				pop.Weights[a.ID] = w
				pop.MaliceProb[a.ID] = tracker.MaliceProb(a.ID)
			}
			// The refresh rewrites every weight and malice estimate outside
			// a Drift hook; declare it so the next round designs on them.
			pop.Bump()
			res.WeightDeltas = append(res.WeightDeltas, delta)
			res.Rounds = r + 1
			if delta < cfg.Tol {
				res.Converged = true
				res.ConvergedAt = r
				return engine.ErrStop
			}
			return nil
		},
	}
	eng, err := engine.New(pop, engine.Config{
		Policy:    pol,
		Rounds:    cfg.MaxRounds,
		Observers: []engine.Observer{hooks},
		Cache:     engine.NewCache(),
		Metrics:   cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	if err := eng.Run(ctx); err != nil {
		return nil, err
	}
	for id, w := range pop.Weights {
		res.FinalWeights[id] = w
	}
	return res, nil
}
