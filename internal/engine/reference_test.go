package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"dyncontract/internal/effort"
	"dyncontract/internal/engine"
	"dyncontract/internal/worker"
)

// referenceLedger is the deliberately naive round loop the ledger-identity
// suites compare the engine against. It has no design cache, respond memo,
// cached views, shards, drift scopes, or splices: each round it runs the
// Drift hook, validates the whole population, sorts the agents by ID,
// asks the policy for contracts, computes every agent's response afresh,
// settles by Eq. (7), and fires the observers in the engine's order. Its
// result is what RunLedger returns for the same population and Config;
// any error fails the test.
//
// Only Policy, Rounds, Drift, Responder, and Observers are read. The
// policy is detached from any design cache before the first round, so
// each of its designs is solved from scratch.
func referenceLedger(tb testing.TB, pop *engine.Population, cfg engine.Config) []engine.Round {
	tb.Helper()
	ledger, err := runReference(context.Background(), pop, cfg)
	if err != nil {
		tb.Fatalf("reference run: %v", err)
	}
	return ledger
}

func runReference(ctx context.Context, pop *engine.Population, cfg engine.Config) ([]engine.Round, error) {
	if cu, ok := cfg.Policy.(engine.CacheUser); ok {
		cu.UseCache(nil)
	}
	if err := pop.Validate(); err != nil {
		return nil, err
	}
	var ledger []engine.Round
	for r := 0; r < cfg.Rounds; r++ {
		if cfg.Drift != nil {
			cfg.Drift(r, pop)
			if err := pop.Validate(); err != nil {
				return ledger, fmt.Errorf("reference: drift broke population at round %d: %w", r, err)
			}
		}
		agents := append([]*worker.Agent(nil), pop.Agents...)
		sort.Slice(agents, func(i, j int) bool { return agents[i].ID < agents[j].ID })

		contracts, err := cfg.Policy.Contracts(ctx, pop)
		if err != nil {
			return ledger, fmt.Errorf("reference: round %d: %w", r, err)
		}
		for _, ob := range cfg.Observers {
			ob.OnContracts(r, contracts)
		}

		round := engine.Round{Index: r, Outcomes: make([]engine.AgentOutcome, len(agents))}
		for i, a := range agents {
			oc := &round.Outcomes[i]
			*oc = engine.AgentOutcome{AgentID: a.ID, Class: a.Class, Size: a.Size, Weight: pop.Weights[a.ID]}
			c := contracts[a.ID]
			switch {
			case c == nil:
				oc.Excluded = true
			case cfg.Responder != nil:
				y, err := cfg.Responder(r, a, c, pop.Part)
				if err != nil {
					return ledger, fmt.Errorf("reference: responder for %s round %d: %w", a.ID, r, err)
				}
				y = referenceClamp(y, a, pop.Part)
				oc.Effort = y
				oc.Feedback = a.Psi.Eval(y)
				oc.Compensation = c.Eval(oc.Feedback)
			default:
				resp, err := a.BestResponse(c, pop.Part)
				if err != nil {
					return ledger, fmt.Errorf("reference: agent %s round %d: %w", a.ID, r, err)
				}
				if resp.Declined {
					oc.Declined = true
				} else {
					oc.Effort, oc.Feedback, oc.Compensation = resp.Effort, resp.Feedback, resp.Compensation
				}
			}
		}

		// Eq. (7): U = Σ w_i·q_i − μ·Σ c_i over the included agents.
		for _, oc := range round.Outcomes {
			if oc.Excluded || oc.Declined {
				continue
			}
			round.Benefit += oc.Weight * oc.Feedback
			round.Cost += oc.Compensation
		}
		round.Utility = round.Benefit - pop.Mu*round.Cost

		for _, ob := range cfg.Observers {
			if err := ob.OnRoundEnd(round); err != nil {
				if errors.Is(err, engine.ErrStop) {
					return ledger, nil
				}
				return ledger, err
			}
		}
		ledger = append(ledger, round)
	}
	return ledger, nil
}

// referenceClamp restricts a Responder's effort to [0, min(mδ, apex of ψ)],
// mapping negative and NaN efforts to 0 — the engine's clamp, restated.
func referenceClamp(y float64, a *worker.Agent, part effort.Partition) float64 {
	if y < 0 || math.IsNaN(y) {
		return 0
	}
	return math.Min(y, math.Min(part.YMax(), a.Psi.Apex()))
}
