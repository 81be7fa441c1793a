package main

import (
	"context"
	"errors"
	"fmt"
	"math"

	"dyncontract/internal/contract"
	"dyncontract/internal/effort"
	"dyncontract/internal/engine"
	"dyncontract/internal/platform"
	"dyncontract/internal/server"
	"dyncontract/internal/telemetry"
	"dyncontract/internal/worker"
)

// mirror is a bare engine.Engine fed the same population and the same
// drift declarations (Touch, TouchJoin, TouchLeave) as a served session.
// Ledger determinism makes its rounds the reference every served round
// must equal bit for bit, and its counters give the engine layer's view
// of the same work.
type mirror struct {
	pop   *engine.Population
	eng   *engine.Engine
	reg   *telemetry.Registry
	cache *engine.Cache
	memo  *engine.RespondMemo
	byID  map[string]*worker.Agent
	last  summary
}

// summary is the part of a round the correctness gate compares.
type summary struct {
	Index                  int
	Benefit, Cost, Utility float64
}

func (m *mirror) OnContracts(int, map[string]*contract.PiecewiseLinear) {}
func (m *mirror) OnOutcome(int, engine.AgentOutcome)                    {}
func (m *mirror) OnRoundEnd(r engine.Round) error {
	m.last = summary{r.Index, r.Benefit, r.Cost, r.Utility}
	return nil
}

// newMirror builds the population the server's explicit-agents route
// builds from req, and an engine configured as the server configures a
// session's (dynamic policy, design cache, respond memo, req.Shards).
func newMirror(req *server.CreateSessionRequest) (*mirror, error) {
	part, err := effort.NewPartition(req.M, req.Delta)
	if err != nil {
		return nil, err
	}
	pop := &engine.Population{
		Weights:    make(map[string]float64, len(req.Agents)),
		MaliceProb: make(map[string]float64),
		Part:       part,
		Mu:         req.Mu,
	}
	for i := range req.Agents {
		spec := &req.Agents[i]
		a, err := spec.Agent()
		if err != nil {
			return nil, err
		}
		pop.Agents = append(pop.Agents, a)
		pop.Weights[a.ID] = spec.Weight
		if spec.Malice != 0 {
			pop.MaliceProb[a.ID] = spec.Malice
		}
	}
	if err := pop.Validate(); err != nil {
		return nil, err
	}
	m := &mirror{pop: pop, reg: telemetry.NewRegistry(), cache: engine.NewCache(), memo: engine.NewRespondMemo(), byID: make(map[string]*worker.Agent, len(pop.Agents))}
	for _, a := range pop.Agents {
		m.byID[a.ID] = a
	}
	m.eng, err = engine.New(pop, engine.Config{
		Policy:    &platform.DynamicPolicy{},
		Rounds:    1,
		Observers: []engine.Observer{m},
		Cache:     m.cache,
		Memo:      m.memo,
		Shards:    req.Shards,
		Metrics:   m.reg,
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// apply mutates the population as the server's drift route does (adds,
// removes, then scalar fields) and declares the same scopes. Validation
// is left to the caller, which times it as the server layer's cost.
func (m *mirror) apply(req *server.DriftRequest) error {
	byID := m.byID
	var adds, removes, touched []string
	for i := range req.Add {
		a, err := req.Add[i].Agent()
		if err != nil {
			return err
		}
		m.pop.Agents = append(m.pop.Agents, a)
		m.pop.Weights[a.ID] = req.Add[i].Weight
		m.pop.MaliceProb[a.ID] = req.Add[i].Malice
		byID[a.ID] = a
		adds = append(adds, a.ID)
	}
	for _, id := range req.Remove {
		for i, a := range m.pop.Agents {
			if a.ID == id {
				m.pop.Agents = append(m.pop.Agents[:i], m.pop.Agents[i+1:]...)
				break
			}
		}
		delete(m.pop.Weights, id)
		delete(m.pop.MaliceProb, id)
		delete(byID, id)
		removes = append(removes, id)
	}
	seen := make(map[string]bool)
	touch := func(id string) *worker.Agent {
		if !seen[id] {
			seen[id] = true
			touched = append(touched, id)
		}
		return byID[id]
	}
	for id, w := range req.Weights {
		touch(id)
		m.pop.Weights[id] = w
	}
	for id, b := range req.Beta {
		touch(id).Beta = b
	}
	for id, o := range req.Omega {
		touch(id).Omega = o
	}
	if len(req.Psi) > 0 {
		return errors.New("mirror: psi drift is not generated")
	}
	m.pop.Touch(touched...)
	m.pop.TouchJoin(adds...)
	m.pop.TouchLeave(removes...)
	return nil
}

// step advances the mirror one round.
func (m *mirror) step(ctx context.Context) error {
	if err := m.eng.Step(ctx); err != nil {
		return fmt.Errorf("mirror round: %w", err)
	}
	return nil
}

// sameRound reports whether a served round's benefit, cost and utility
// equal want bit for bit.
func sameRound(got server.RoundJSON, want summary) error {
	if got.Round != want.Index ||
		math.Float64bits(got.Benefit) != math.Float64bits(want.Benefit) ||
		math.Float64bits(got.Cost) != math.Float64bits(want.Cost) ||
		math.Float64bits(got.Utility) != math.Float64bits(want.Utility) {
		return fmt.Errorf("round %d: served (benefit %v, cost %v, utility %v) != mirror round %d (%v, %v, %v)",
			got.Round, got.Benefit, got.Cost, got.Utility, want.Index, want.Benefit, want.Cost, want.Utility)
	}
	return nil
}
