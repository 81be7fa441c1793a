package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"dyncontract/internal/core"
	"dyncontract/internal/effort"
	"dyncontract/internal/engine"
	"dyncontract/internal/experiments"
	"dyncontract/internal/server"
	"dyncontract/internal/synth"
	"dyncontract/internal/worker"
)

// Request generation. Every body the server receives is built here from
// the workload seed alone, never from a server response, so a seed names
// one exact request stream and the mirror engine can replay it.

// step is one client step: one or two drifts, a round, and a design
// query, sent in that order.
type step struct {
	drifts []drift
	// design is the design-query body (nil: the step sends none).
	design []byte
	// queried is the agent the design query asks about, with the weight
	// the session holds for it; contract is the contract core.DesignInto
	// gives it (see expectContracts), which the answer must equal.
	queried  server.AgentSpec
	contract []byte
}

// drift is one drift request: the body sent, and its decoded form for the
// mirror engine.
type drift struct {
	req  server.DriftRequest
	body []byte
}

func newDrift(req server.DriftRequest) drift { return drift{req: req, body: mustJSON(req)} }

// roundBody is the POST …/rounds body: an empty request advances one
// round and returns the summary.
var roundBody = []byte("{}")

// session is a generated session: the create body and its decoded form.
type session struct {
	create server.CreateSessionRequest
	body   []byte
}

func newSession(agents []server.AgentSpec, m int, delta, mu float64, shards int) session {
	req := server.CreateSessionRequest{Agents: agents, M: m, Delta: delta, Mu: mu, Shards: shards}
	return session{create: req, body: mustJSON(req)}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every generated type marshals
	}
	return b
}

// specOf is the wire form of a pipeline agent.
func specOf(a *worker.Agent, weight, malice float64) server.AgentSpec {
	cls := "honest"
	switch a.Class {
	case worker.NonCollusiveMalicious:
		cls = "malicious"
	case worker.CollusiveMalicious:
		cls = "community"
	}
	return server.AgentSpec{
		ID:          a.ID,
		Class:       cls,
		Psi:         server.PsiSpec{R2: a.Psi.R2, R1: a.Psi.R1, R0: a.Psi.R0},
		Beta:        a.Beta,
		Omega:       a.Omega,
		Size:        a.Size,
		Reservation: a.Reservation,
		Weight:      weight,
		Malice:      malice,
	}
}

// paperPopulation draws agents from the paper-scale synthetic pipeline:
// up to perClass honest and non-collusive workers plus every community,
// each with its own fitted parameters and Eq. (5) weight.
func paperPopulation(seed int64, perClass int) ([]server.AgentSpec, *engine.Population, error) {
	pipe, err := experiments.BuildPipeline(synth.PaperScale(seed))
	if err != nil {
		return nil, nil, fmt.Errorf("paper pipeline: %w", err)
	}
	pop, err := pipe.BuildPopulation(experiments.DefaultParams(), perClass)
	if err != nil {
		return nil, nil, fmt.Errorf("paper population: %w", err)
	}
	specs := make([]server.AgentSpec, len(pop.Agents))
	for i, a := range pop.Agents {
		specs[i] = specOf(a, pop.Weights[a.ID], pop.MaliceProb[a.ID])
	}
	return specs, pop, nil
}

// freshWeight re-estimates a weight to a value never seen before.
func freshWeight(rng *rand.Rand, base float64) float64 {
	return base * (0.5 + rng.Float64())
}

// pick draws k distinct indices from [0, n) in draw order.
func pick(rng *rand.Rand, n, k int) []int {
	seen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for len(out) < k {
		i := rng.Intn(n)
		if _, dup := seen[i]; dup {
			continue
		}
		seen[i] = struct{}{}
		out = append(out, i)
	}
	return out
}

// paperGen generates paper-serve steps: each step re-estimates 1% of the
// roster's weights and queries the design of one new inline worker; every
// 10th step also retires the previous joiners and admits 0.5% new ones.
// Weights are fresh each time, so every touched agent, joiner and query
// carries a fingerprint the design cache has never seen. The restart
// workload's script uses the same generator with joins every 5th step and
// value drift, β (and ω for malicious workers) of 0.5% of the agents, sent
// as a second drift request after the weights: three commands per round
// keep the snapshot's ledger, and with it every restart, a third smaller.
type paperGen struct {
	rng    *rand.Rand
	every  int                // structural drift period in steps
	values bool               // also drift β and ω, in a second request
	base   []server.AgentSpec // the session's initial agents
	roster []server.AgentSpec // live agents: base, then the current joiners
	joined int                // live joiners at the roster's tail
	i      int
}

func newPaperGen(seed int64, base []server.AgentSpec) *paperGen {
	return newGen(seed, base, 10, false)
}

func newScriptGen(seed int64, base []server.AgentSpec) *paperGen {
	return newGen(seed, base, 5, true)
}

func newGen(seed int64, base []server.AgentSpec, every int, values bool) *paperGen {
	roster := make([]server.AgentSpec, len(base))
	copy(roster, base)
	return &paperGen{rng: rand.New(rand.NewSource(seed)), every: every, values: values, base: base, roster: roster}
}

func (g *paperGen) next() step {
	i := g.i
	g.i++
	var req server.DriftRequest
	structural := i%g.every == g.every-1
	stay := len(g.roster)
	if structural {
		stay -= g.joined
	}
	req.Weights = make(map[string]float64)
	for _, k := range pick(g.rng, stay, max(1, len(g.roster)/100)) {
		a := &g.roster[k]
		a.Weight = freshWeight(g.rng, a.Weight)
		req.Weights[a.ID] = a.Weight
	}
	if g.values {
		req.Beta = make(map[string]float64)
		req.Omega = make(map[string]float64)
		for _, k := range pick(g.rng, stay, max(1, len(g.roster)/200)) {
			a := &g.roster[k]
			a.Beta *= 0.9 + 0.2*g.rng.Float64()
			req.Beta[a.ID] = a.Beta
			if a.Class != "honest" {
				a.Omega *= 0.9 + 0.2*g.rng.Float64()
				req.Omega[a.ID] = a.Omega
			}
		}
	}
	if structural {
		for _, a := range g.roster[stay:] {
			req.Remove = append(req.Remove, a.ID)
		}
		g.roster = g.roster[:stay]
		n := max(1, len(g.base)/200)
		for k := 0; k < n; k++ {
			a := g.clone(fmt.Sprintf("join-%06d-%03d", i, k))
			req.Add = append(req.Add, a)
			g.roster = append(g.roster, a)
		}
		g.joined = n
	}
	q := g.clone(fmt.Sprintf("query-%06d", i))
	st := step{design: mustJSON(server.DesignQueryRequest{Agent: &q}), queried: q}
	if g.values {
		rest := req
		rest.Weights = nil
		st.drifts = []drift{newDrift(server.DriftRequest{Weights: req.Weights}), newDrift(rest)}
	} else {
		st.drifts = []drift{newDrift(req)}
	}
	return st
}

// clone is a new worker: the parameters of a random initial agent under a
// new ID and a freshly estimated weight.
func (g *paperGen) clone(id string) server.AgentSpec {
	a := g.base[g.rng.Intn(len(g.base))]
	a.ID = id
	a.Weight = freshWeight(g.rng, a.Weight)
	return a
}

// archetypeGen generates archetype-warm steps over agents drawn from three
// archetypes (one per class), each archetype at one of two weights. Agents
// come in pairs holding opposite weights, and a step toggles 1% of the
// agents as whole pairs (antiphase), so the set of live fingerprints never
// changes: after the first round every design and best response is a
// cache or memo hit.
type archetypeGen struct {
	rng    *rand.Rand
	agents []server.AgentSpec
	alt    []float64 // the other weight of each agent
	i      int
}

// archetypes draws one agent per class from the small-scale pipeline and
// builds n agents from them, in pairs at the archetype's weight w and
// 0.8·w.
func newArchetypeGen(seed int64, n int) (*archetypeGen, int, float64, float64, error) {
	pipe, err := experiments.BuildPipeline(synth.SmallScale(seed))
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("small pipeline: %w", err)
	}
	pop, err := pipe.BuildPopulation(experiments.DefaultParams(), 50)
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("small population: %w", err)
	}
	var arch []server.AgentSpec
	seen := map[worker.Class]bool{}
	for _, a := range pop.Agents {
		if !seen[a.Class] {
			seen[a.Class] = true
			arch = append(arch, specOf(a, pop.Weights[a.ID], pop.MaliceProb[a.ID]))
		}
	}
	sort.Slice(arch, func(i, j int) bool { return arch[i].Class < arch[j].Class })
	g := &archetypeGen{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < n; i++ {
		a := arch[(i/2)%len(arch)]
		a.ID = fmt.Sprintf("agent-%06d", i)
		w, alt := a.Weight, 0.8*a.Weight
		if i%2 == 1 {
			w, alt = alt, w
		}
		a.Weight = w
		g.agents = append(g.agents, a)
		g.alt = append(g.alt, alt)
	}
	return g, pop.Part.M, pop.Part.Delta, pop.Mu, nil
}

// next toggles the pairs and queries the design of one toggled agent by
// ID: the round totals cannot show a lost toggle (a pair swaps weights
// between identical agents), the agent's contract can.
func (g *archetypeGen) next() step {
	g.i++
	req := server.DriftRequest{Weights: make(map[string]float64)}
	var toggled []int
	for _, p := range pick(g.rng, len(g.agents)/2, max(1, len(g.agents)/200)) {
		for _, k := range []int{2 * p, 2*p + 1} {
			a := &g.agents[k]
			a.Weight, g.alt[k] = g.alt[k], a.Weight
			req.Weights[a.ID] = a.Weight
			toggled = append(toggled, k)
		}
	}
	q := g.agents[toggled[g.rng.Intn(len(toggled))]]
	return step{
		drifts:  []drift{newDrift(req)},
		design:  mustJSON(server.DesignQueryRequest{AgentID: q.ID}),
		queried: q,
	}
}

// expectContracts fills each step's expected design-query answer: the
// contract core.DesignInto gives the queried agent at its weight under
// the session's partition and μ.
func expectContracts(create session, steps []step) error {
	part, err := effort.NewPartition(create.create.M, create.create.Delta)
	if err != nil {
		return err
	}
	var scratch core.Scratch
	memo := make(map[engine.Fingerprint][]byte)
	for i := range steps {
		st := &steps[i]
		if st.design == nil {
			continue
		}
		a, err := st.queried.Agent()
		if err != nil {
			return err
		}
		cfg := core.Config{Part: part, Mu: create.create.Mu, W: st.queried.Weight}
		fp := engine.FingerprintOf(a, cfg)
		if b, ok := memo[fp]; ok {
			st.contract = b
			continue
		}
		res, err := core.DesignInto(a, cfg, &scratch)
		if err != nil {
			return fmt.Errorf("design %s: %w", a.ID, err)
		}
		st.contract = mustJSON(res.Contract)
		memo[fp] = st.contract
	}
	return nil
}
