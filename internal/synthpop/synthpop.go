// Package synthpop builds populations from review traces: the §IV
// strategy framework (Fig. 4) from a trace to design-ready agents —
// estimate malice probabilities, cluster collusive communities, fit
// per-class effort functions, and weigh workers (Eq. (5)). The
// experiments regenerate the paper's figures from a Pipeline, and the
// serving layer mints its synthetic sessions from one, so both see the
// same population for the same scale and seed.
package synthpop

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dyncontract/internal/cluster"
	"dyncontract/internal/effort"
	"dyncontract/internal/engine"
	"dyncontract/internal/requester"
	"dyncontract/internal/stats"
	"dyncontract/internal/synth"
	"dyncontract/internal/trace"
	"dyncontract/internal/worker"
)

// ErrPipeline is returned when the shared pipeline cannot be built.
var ErrPipeline = errors.New("synthpop: pipeline failed")

// EffortScaleTarget is the effort value the 95th-percentile trace effort is
// mapped to. Raw trace efforts (expertise × characters) are in the
// thousands; effort units are arbitrary in the model, and the paper's
// parameter regime (β = 1) implicitly assumes a scale where the marginal
// feedback w·ψ′(0) exceeds the marginal effort cost β — otherwise no
// contract can profitably incentivize work. Mapping the 95th percentile to
// 5 puts the fitted ψ′(0) near 1.5–2, which reproduces that regime.
const EffortScaleTarget = 5.0

// Params holds the model parameters a population is built with,
// defaulting to the paper's evaluation setting (§IV-C: β = 1, κ = γ = 0.1;
// ω is the malicious feedback weight).
type Params struct {
	// Beta is the workers' effort-cost weight β.
	Beta float64
	// Omega is the malicious workers' feedback weight ω.
	Omega float64
	// Mu is the requester's compensation weight μ.
	Mu float64
	// M is the number of effort intervals.
	M int
	// Weight holds the Eq. (5) coefficients.
	Weight requester.WeightParams
}

// DefaultParams returns the paper's setting.
func DefaultParams() Params {
	return Params{
		Beta:   1,
		Omega:  0.5,
		Mu:     1,
		M:      20,
		Weight: requester.DefaultWeightParams(),
	}
}

// Pipeline is the trace and everything §IV derives from it: the state
// every experiment consumes and every synthetic population is built from.
type Pipeline struct {
	// Trace is the (synthetic) review trace.
	Trace *trace.Trace
	// Stats caches per-worker statistics.
	Stats map[string]trace.WorkerStats
	// MaliceProb is the estimated e_i^mal per worker.
	MaliceProb map[string]float64
	// Communities are the detected collusive communities.
	Communities []cluster.Community
	// Partners caches A_i per collusive worker.
	Partners map[string]int
	// HonestIDs, NCMIDs, CMIDs classify workers by ground truth plus
	// detection: honest (label false), non-collusive malicious (label
	// true, no community), collusive malicious (community member).
	HonestIDs, NCMIDs, CMIDs []string
	// EffortScale divides raw trace efforts into model efforts.
	EffortScale float64
	// ClassFit holds the fitted effort function per behavioural class.
	ClassFit map[worker.Class]effort.FitResult
	// Seed is carried for experiments needing extra randomness.
	Seed int64
}

// BuildPipeline generates the trace and runs the §IV preprocessing.
func BuildPipeline(cfg synth.Config) (*Pipeline, error) {
	tr, err := synth.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPipeline, err)
	}
	return BuildPipelineFromTrace(tr, cfg.Seed)
}

// BuildPipelineFromTrace runs the preprocessing on an existing trace.
func BuildPipelineFromTrace(tr *trace.Trace, seed int64) (*Pipeline, error) {
	p := &Pipeline{Trace: tr, Seed: seed}
	p.Stats = tr.ComputeWorkerStats()

	est, err := cluster.DefaultEstimator(seed).Estimate(tr)
	if err != nil {
		return nil, fmt.Errorf("%w: estimate malice: %v", ErrPipeline, err)
	}
	p.MaliceProb = est

	malicious := tr.MaliciousWorkerIDs()
	p.Communities = cluster.FindCommunities(tr, malicious)
	p.Partners = cluster.PartnerCounts(p.Communities)

	inCommunity := make(map[string]bool)
	for _, c := range p.Communities {
		for _, m := range c.Members {
			inCommunity[m] = true
		}
	}
	for _, id := range tr.HonestWorkerIDs() {
		p.HonestIDs = append(p.HonestIDs, id)
	}
	for _, id := range malicious {
		if inCommunity[id] {
			p.CMIDs = append(p.CMIDs, id)
		} else {
			p.NCMIDs = append(p.NCMIDs, id)
		}
	}
	sort.Strings(p.HonestIDs)
	sort.Strings(p.NCMIDs)
	sort.Strings(p.CMIDs)

	if err := p.computeEffortScale(); err != nil {
		return nil, err
	}
	if err := p.fitClassEffortFunctions(); err != nil {
		return nil, err
	}
	return p, nil
}

// computeEffortScale sets EffortScale so the 95th-percentile raw effort
// maps to EffortScaleTarget.
func (p *Pipeline) computeEffortScale() error {
	var efforts []float64
	stats95 := p.Stats
	for _, r := range p.Trace.Reviews {
		st, ok := stats95[r.WorkerID]
		if !ok {
			continue
		}
		efforts = append(efforts, st.Expertise*float64(r.Length))
	}
	if len(efforts) == 0 {
		return fmt.Errorf("%w: no effort observations", ErrPipeline)
	}
	p95, err := stats.Percentile(efforts, 95)
	if err != nil || p95 <= 0 {
		return fmt.Errorf("%w: effort scale: %v", ErrPipeline, err)
	}
	p.EffortScale = p95 / EffortScaleTarget
	return nil
}

// ClassPoints returns the scaled (effort, feedback) cloud of one class.
func (p *Pipeline) ClassPoints(class worker.Class) (efforts, feedbacks []float64, err error) {
	var ids []string
	switch class {
	case worker.Honest:
		ids = p.HonestIDs
	case worker.NonCollusiveMalicious:
		ids = p.NCMIDs
	case worker.CollusiveMalicious:
		ids = p.CMIDs
	default:
		return nil, nil, fmt.Errorf("%w: unknown class %v", ErrPipeline, class)
	}
	raw, fb := p.Trace.EffortFeedbackPoints(ids)
	efforts = make([]float64, len(raw))
	for i, y := range raw {
		efforts[i] = y / p.EffortScale
	}
	return efforts, fb, nil
}

// fitClassEffortFunctions fits one concave quadratic per class (§IV-B).
func (p *Pipeline) fitClassEffortFunctions() error {
	p.ClassFit = make(map[worker.Class]effort.FitResult, 3)
	for _, class := range []worker.Class{worker.Honest, worker.NonCollusiveMalicious, worker.CollusiveMalicious} {
		efforts, feedbacks, err := p.ClassPoints(class)
		if err != nil {
			return err
		}
		if len(efforts) < 3 {
			return fmt.Errorf("%w: class %v has %d points", ErrPipeline, class, len(efforts))
		}
		fit, err := effort.FitConcaveQuadratic(efforts, feedbacks)
		if err != nil {
			return fmt.Errorf("%w: fit class %v: %v", ErrPipeline, class, err)
		}
		p.ClassFit[class] = fit
	}
	return nil
}

// Partition builds the m-interval partition over the scaled effort range.
// The range ends at the smallest class apex (clipped to the scale target's
// neighbourhood) so every fitted ψ is strictly increasing across it.
func (p *Pipeline) Partition(m int) (effort.Partition, error) {
	yMax := EffortScaleTarget
	for _, fit := range p.ClassFit {
		if apex := fit.Quadratic.Apex(); 0.999*apex < yMax {
			yMax = 0.999 * apex
		}
	}
	if yMax <= 0 {
		return effort.Partition{}, fmt.Errorf("%w: degenerate effort range", ErrPipeline)
	}
	return effort.NewPartition(m, yMax/float64(m))
}

// WorkerWeight computes the Eq. (5) weight for one worker from its trace
// signals.
func (p *Pipeline) WorkerWeight(id string, params Params) (float64, error) {
	st, ok := p.Stats[id]
	if !ok {
		return 0, fmt.Errorf("%w: worker %s has no stats", ErrPipeline, id)
	}
	dist := st.AvgAccuracyDist
	if math.IsNaN(dist) {
		dist = params.Weight.DistFloor
	}
	sig := requester.WorkerSignal{
		ReviewScore: st.AvgScore,
		ExpertScore: st.AvgScore - dist, // encode the measured distance
		MaliceProb:  p.MaliceProb[id],
		Partners:    p.Partners[id],
	}
	return requester.Weight(params.Weight, sig)
}

// Agent materializes one worker (by ID) as a design-ready agent using the
// class effort function; class is decided by the pipeline's classification.
func (p *Pipeline) Agent(id string, params Params, part effort.Partition) (*worker.Agent, error) {
	class := p.ClassOf(id)
	fit, ok := p.ClassFit[class]
	if !ok {
		return nil, fmt.Errorf("%w: no fit for class %v", ErrPipeline, class)
	}
	if class == worker.Honest {
		return worker.NewHonest(id, fit.Quadratic, params.Beta, part.YMax())
	}
	// Collusive members are designed for at community level; an individual
	// CM agent is only needed for per-member reporting.
	return worker.NewMalicious(id, fit.Quadratic, params.Beta, params.Omega, part.YMax())
}

// CommunityAgent materializes a collusive community as a meta-agent.
func (p *Pipeline) CommunityAgent(idx int, params Params, part effort.Partition) (*worker.Agent, error) {
	if idx < 0 || idx >= len(p.Communities) {
		return nil, fmt.Errorf("%w: community %d out of range", ErrPipeline, idx)
	}
	c := p.Communities[idx]
	fit := p.ClassFit[worker.CollusiveMalicious]
	return worker.NewCommunity(fmt.Sprintf("community%03d", idx), fit.Quadratic,
		params.Beta, params.Omega, c.Size(), part.YMax())
}

// ClassOf returns the pipeline's classification for a worker ID.
func (p *Pipeline) ClassOf(id string) worker.Class {
	if p.Partners[id] > 0 {
		return worker.CollusiveMalicious
	}
	if w, ok := p.Trace.Workers[id]; ok && w.Malicious {
		return worker.NonCollusiveMalicious
	}
	return worker.Honest
}

// BuildPopulation materializes a platform population from the pipeline:
// sampled honest and non-collusive malicious individuals plus every
// collusive community as a meta-agent, with Eq. (5) weights and estimated
// malice probabilities.
func (p *Pipeline) BuildPopulation(params Params, maxPerClass int) (*engine.Population, error) {
	part, err := p.Partition(params.M)
	if err != nil {
		return nil, err
	}
	pop := &engine.Population{
		Weights:    make(map[string]float64),
		MaliceProb: make(map[string]float64),
		Part:       part,
		Mu:         params.Mu,
	}
	add := func(a *worker.Agent, w, malice float64) {
		pop.Agents = append(pop.Agents, a)
		pop.Weights[a.ID] = w
		pop.MaliceProb[a.ID] = malice
	}
	for _, ids := range [][]string{p.HonestIDs, p.NCMIDs} {
		for _, id := range SampleIDs(ids, maxPerClass) {
			a, err := p.Agent(id, params, part)
			if err != nil {
				return nil, err
			}
			w, err := p.WorkerWeight(id, params)
			if err != nil {
				return nil, err
			}
			add(a, w, p.MaliceProb[id])
		}
	}
	for ci, comm := range p.Communities {
		a, err := p.CommunityAgent(ci, params, part)
		if err != nil {
			return nil, err
		}
		var wSum, eSum float64
		for _, id := range comm.Members {
			w, err := p.WorkerWeight(id, params)
			if err != nil {
				return nil, err
			}
			wSum += w
			eSum += p.MaliceProb[id]
		}
		n := float64(comm.Size())
		add(a, wSum/n, eSum/n)
	}
	return pop, nil
}

// SampleIDs returns a deterministic strided sample of the sorted IDs.
func SampleIDs(ids []string, maxN int) []string {
	if len(ids) <= maxN {
		return ids
	}
	// Deterministic strided sample across the sorted range (not just the
	// prefix, which could correlate with generation order).
	out := make([]string, 0, maxN)
	stride := float64(len(ids)) / float64(maxN)
	for i := 0; i < maxN; i++ {
		out = append(out, ids[int(float64(i)*stride)])
	}
	return out
}
