// Package classify extends the contract-design model from review tasks to
// crowdsourced binary classification — the generalization the paper names
// as future work (§VII: "extend our model from review tasks to a more
// general case, which can be applied to different crowdsourcing
// applications, like classification").
//
// The mapping onto the §II model:
//
//   - a task is a batch of items to label, seeded with gold questions of
//     known truth (the "programmatic gold" technique of [17]);
//   - a worker's observable feedback q is the number of gold questions
//     answered correctly, whose expectation G·p(y) is concave and
//     increasing in effort because the worker's accuracy p(y) is — so the
//     feedback function ψ is again a concave quadratic and the §IV-C
//     contract machinery applies unchanged;
//   - malicious workers bias their labels toward a target class; their
//     damage is bounded by the aggregation step, which weights votes by
//     demonstrated gold accuracy.
//
// The package provides the accuracy model, the ψ conversion, a weighted
// majority-vote aggregator, and a batch simulator that runs contracts,
// labeling, and aggregation end to end.
package classify

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dyncontract/internal/contract"
	"dyncontract/internal/core"
	"dyncontract/internal/effort"
	"dyncontract/internal/worker"
)

// ErrBadModel is returned for invalid classification models.
var ErrBadModel = errors.New("classify: invalid model")

// AccuracyCurve maps a worker's effort to labeling accuracy:
//
//	p(y) = Base + Gain·y + Curv·y², clamped to [0.5, PMax]
//
// with Curv ≤ 0 (diminishing returns) and Gain > 0. Base is the
// zero-effort accuracy (guessing = 0.5).
type AccuracyCurve struct {
	// Base is p(0), at least 0.5 (random guessing on binary labels).
	Base float64
	// Gain is the linear accuracy gain per unit effort.
	Gain float64
	// Curv is the (non-positive) curvature.
	Curv float64
	// PMax caps accuracy strictly below 1 (nobody is perfect).
	PMax float64
}

// DefaultCurve returns a curve reaching ~0.93 accuracy at effort 10.
func DefaultCurve() AccuracyCurve {
	return AccuracyCurve{Base: 0.55, Gain: 0.06, Curv: -0.0022, PMax: 0.97}
}

// Validate checks the curve over the effort range [0, yMax].
func (c AccuracyCurve) Validate(yMax float64) error {
	if c.Base < 0.5 || c.Base >= 1 {
		return fmt.Errorf("base=%v outside [0.5, 1): %w", c.Base, ErrBadModel)
	}
	if c.Gain <= 0 {
		return fmt.Errorf("gain=%v must be positive: %w", c.Gain, ErrBadModel)
	}
	if c.Curv > 0 {
		return fmt.Errorf("curv=%v must be non-positive: %w", c.Curv, ErrBadModel)
	}
	if c.PMax <= c.Base || c.PMax >= 1 {
		return fmt.Errorf("pmax=%v outside (base, 1): %w", c.PMax, ErrBadModel)
	}
	if c.Curv < 0 && yMax > 0 {
		// Accuracy must still be increasing at yMax.
		if c.Gain+2*c.Curv*yMax <= 0 {
			return fmt.Errorf("accuracy not increasing at y=%v: %w", yMax, ErrBadModel)
		}
	}
	return nil
}

// Eval returns the clamped accuracy at effort y. Effort beyond the
// curve's apex is treated as the apex: extra work plateaus rather than
// degrades accuracy.
func (c AccuracyCurve) Eval(y float64) float64 {
	if c.Curv < 0 {
		if apex := -c.Gain / (2 * c.Curv); y > apex {
			y = apex
		}
	}
	p := c.Base + c.Gain*y + c.Curv*y*y
	if p < 0.5 {
		return 0.5
	}
	if p > c.PMax {
		return c.PMax
	}
	return p
}

// FeedbackPsi converts the curve into the contract framework's effort
// function: ψ(y) = G·(Base + Gain·y + Curv·y²), the expected number of
// correct answers over G gold questions. Curv = 0 curves get a tiny
// negative curvature so the quadratic stays strictly concave as §IV-C
// requires.
func (c AccuracyCurve) FeedbackPsi(gold int, yMax float64) (effort.Quadratic, error) {
	if gold <= 0 {
		return effort.Quadratic{}, fmt.Errorf("gold=%d must be positive: %w", gold, ErrBadModel)
	}
	if err := c.Validate(yMax); err != nil {
		return effort.Quadratic{}, err
	}
	g := float64(gold)
	curv := c.Curv
	if curv == 0 {
		curv = -c.Gain / (1e6 * math.Max(yMax, 1))
	}
	return effort.NewQuadratic(g*curv, g*c.Gain, g*c.Base, yMax)
}

// Labeler is one worker in a classification task.
type Labeler struct {
	// ID identifies the labeler.
	ID string
	// Class is the behavioural class.
	Class worker.Class
	// Curve is the effort→accuracy model.
	Curve AccuracyCurve
	// Beta is the effort-cost weight.
	Beta float64
	// Omega is the influence weight for malicious labelers.
	Omega float64
	// TargetBias is the probability a malicious labeler overrides its
	// answer with `true` (the promoted class) on non-gold items; 0 for
	// honest labelers.
	TargetBias float64
}

// Validate checks the labeler over the effort range.
func (l Labeler) Validate(yMax float64) error {
	if l.ID == "" {
		return fmt.Errorf("empty labeler ID: %w", ErrBadModel)
	}
	if !l.Class.Valid() {
		return fmt.Errorf("labeler %s: bad class: %w", l.ID, ErrBadModel)
	}
	if err := l.Curve.Validate(yMax); err != nil {
		return fmt.Errorf("labeler %s: %w", l.ID, err)
	}
	if l.Beta <= 0 {
		return fmt.Errorf("labeler %s: beta=%v: %w", l.ID, l.Beta, ErrBadModel)
	}
	if l.TargetBias < 0 || l.TargetBias > 1 {
		return fmt.Errorf("labeler %s: bias=%v outside [0,1]: %w", l.ID, l.TargetBias, ErrBadModel)
	}
	if l.Class == worker.Honest && (l.TargetBias != 0 || l.Omega != 0) {
		return fmt.Errorf("labeler %s: honest with bias/omega: %w", l.ID, ErrBadModel)
	}
	return nil
}

// Task is a batch classification task.
type Task struct {
	// Truth holds the ground-truth labels, one per item.
	Truth []bool
	// Gold is the number of seeded gold questions used to measure
	// feedback (the first Gold items are gold; workers cannot tell).
	Gold int
	// ItemValue is the requester's value per correctly aggregated item.
	ItemValue float64
	// Mu is the compensation weight in the requester's utility.
	Mu float64
}

// Validate checks the task.
func (t Task) Validate() error {
	if len(t.Truth) == 0 {
		return fmt.Errorf("no items: %w", ErrBadModel)
	}
	if t.Gold <= 0 || t.Gold > len(t.Truth) {
		return fmt.Errorf("gold=%d outside [1, %d]: %w", t.Gold, len(t.Truth), ErrBadModel)
	}
	if t.ItemValue <= 0 || t.Mu <= 0 {
		return fmt.Errorf("itemValue=%v, mu=%v must be positive: %w", t.ItemValue, t.Mu, ErrBadModel)
	}
	return nil
}

// WorkerOutcome is one labeler's batch result.
type WorkerOutcome struct {
	// ID identifies the labeler.
	ID string
	// Effort is the chosen (best-response) effort.
	Effort float64
	// Accuracy is the realized latent accuracy p(Effort).
	Accuracy float64
	// GoldCorrect is the measured feedback (correct gold answers).
	GoldCorrect int
	// Compensation is the contract payment for the batch.
	Compensation float64
}

// Result is the outcome of running a batch.
type Result struct {
	// PerWorker holds per-labeler outcomes, sorted by ID.
	PerWorker []WorkerOutcome
	// Aggregate holds the majority-vote labels, one per item.
	Aggregate []bool
	// AggregateAccuracy is the fraction of items labelled correctly
	// after aggregation.
	AggregateAccuracy float64
	// TotalPay is the summed compensation.
	TotalPay float64
	// RequesterUtility is ItemValue·(#correct) − Mu·TotalPay.
	RequesterUtility float64
}

// DesignContracts designs one contract per labeler using the §IV-C
// machinery on the gold-feedback ψ. Weights follow the same spirit as
// Eq. (5): full weight for honest labelers, penalized for malicious ones.
func DesignContracts(labelers []Labeler, task Task, part effort.Partition, maliceWeightPenalty float64) (map[string]*contract.PiecewiseLinear, error) {
	if err := task.Validate(); err != nil {
		return nil, err
	}
	out := make(map[string]*contract.PiecewiseLinear, len(labelers))
	for _, l := range labelers {
		if err := l.Validate(part.YMax()); err != nil {
			return nil, err
		}
		psi, err := l.Curve.FeedbackPsi(task.Gold, part.YMax())
		if err != nil {
			return nil, fmt.Errorf("labeler %s: %w", l.ID, err)
		}
		agent := &worker.Agent{
			ID:    l.ID,
			Class: l.Class,
			Psi:   psi,
			Beta:  l.Beta,
			Omega: l.Omega,
			Size:  1,
		}
		// Requester values a correct gold answer at ItemValue and
		// discounts malicious labelers' contributions.
		w := task.ItemValue
		if l.Class != worker.Honest {
			w -= maliceWeightPenalty
		}
		res, err := core.DesignInto(agent, core.Config{Part: part, Mu: task.Mu, W: w}, nil)
		if err != nil {
			return nil, fmt.Errorf("design for %s: %w", l.ID, err)
		}
		out[l.ID] = res.Contract
	}
	return out, nil
}

// RunBatch simulates one batch: every labeler best-responds to its
// contract, labels all items with accuracy p(y) (malicious labelers
// override non-gold answers toward `true` with probability TargetBias),
// feedback is measured on the gold items, and labels are aggregated by
// gold-accuracy-weighted majority vote.
func RunBatch(rng *rand.Rand, labelers []Labeler, task Task, contracts map[string]*contract.PiecewiseLinear, part effort.Partition) (*Result, error) {
	if err := task.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("nil rng: %w", ErrBadModel)
	}
	n := len(task.Truth)
	type vote struct {
		labels []bool
		weight float64
	}
	votes := make([]vote, 0, len(labelers))
	res := &Result{}

	sorted := append([]Labeler(nil), labelers...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for _, l := range sorted {
		if err := l.Validate(part.YMax()); err != nil {
			return nil, err
		}
		c, ok := contracts[l.ID]
		if !ok || c == nil {
			continue // excluded labeler
		}
		psi, err := l.Curve.FeedbackPsi(task.Gold, part.YMax())
		if err != nil {
			return nil, err
		}
		agent := &worker.Agent{ID: l.ID, Class: l.Class, Psi: psi, Beta: l.Beta, Omega: l.Omega, Size: 1}
		resp, err := agent.BestResponse(c, part)
		if err != nil {
			return nil, fmt.Errorf("best response for %s: %w", l.ID, err)
		}
		p := l.Curve.Eval(resp.Effort)

		labels := make([]bool, n)
		goldCorrect := 0
		for i := 0; i < n; i++ {
			correct := rng.Float64() < p
			if correct {
				labels[i] = task.Truth[i]
			} else {
				labels[i] = !task.Truth[i]
			}
			if i >= task.Gold && l.TargetBias > 0 && rng.Float64() < l.TargetBias {
				labels[i] = true // push the promoted class on non-gold items
			}
			if i < task.Gold && labels[i] == task.Truth[i] {
				goldCorrect++
			}
		}
		// Pay on measured gold feedback.
		comp := c.Eval(float64(goldCorrect))
		res.PerWorker = append(res.PerWorker, WorkerOutcome{
			ID:           l.ID,
			Effort:       resp.Effort,
			Accuracy:     p,
			GoldCorrect:  goldCorrect,
			Compensation: comp,
		})
		res.TotalPay += comp

		// Vote weight: demonstrated gold accuracy above chance.
		acc := float64(goldCorrect) / float64(task.Gold)
		weight := acc - 0.5
		if weight > 0 {
			votes = append(votes, vote{labels: labels, weight: weight})
		}
	}

	// Weighted majority vote per item; ties and empty panels fall to
	// the majority class of the gold set (the requester's best prior).
	prior := goldMajority(task)
	res.Aggregate = make([]bool, n)
	correct := 0
	for i := 0; i < n; i++ {
		var score float64
		for _, v := range votes {
			if v.labels[i] {
				score += v.weight
			} else {
				score -= v.weight
			}
		}
		switch {
		case score > 0:
			res.Aggregate[i] = true
		case score < 0:
			res.Aggregate[i] = false
		default:
			res.Aggregate[i] = prior
		}
		if res.Aggregate[i] == task.Truth[i] {
			correct++
		}
	}
	res.AggregateAccuracy = float64(correct) / float64(n)
	res.RequesterUtility = task.ItemValue*float64(correct) - task.Mu*res.TotalPay
	return res, nil
}

// goldMajority returns the majority truth over the gold items.
func goldMajority(task Task) bool {
	trues := 0
	for i := 0; i < task.Gold; i++ {
		if task.Truth[i] {
			trues++
		}
	}
	return trues*2 >= task.Gold
}

// NewTask builds a random task with the given size, gold count, and
// positive-class rate.
func NewTask(rng *rand.Rand, items, gold int, positiveRate, itemValue, mu float64) (Task, error) {
	if rng == nil {
		return Task{}, fmt.Errorf("nil rng: %w", ErrBadModel)
	}
	if positiveRate < 0 || positiveRate > 1 {
		return Task{}, fmt.Errorf("positiveRate=%v outside [0,1]: %w", positiveRate, ErrBadModel)
	}
	truth := make([]bool, items)
	for i := range truth {
		truth[i] = rng.Float64() < positiveRate
	}
	t := Task{Truth: truth, Gold: gold, ItemValue: itemValue, Mu: mu}
	if err := t.Validate(); err != nil {
		return Task{}, err
	}
	return t, nil
}
