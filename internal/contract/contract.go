// Package contract implements the piecewise-linear contract functions of
// §III-A: monotonically increasing mappings from a worker's feedback q to a
// compensation c, represented by discrete compensations x_l at knot
// feedbacks d_l = ψ(lδ) and interpolated linearly in between (Eq. (6)).
//
// A PiecewiseLinear value is immutable after construction; the design
// algorithm in internal/core builds candidates through a Builder and
// freezes them.
package contract

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// ErrNotMonotone is returned when knots or compensations are not
// non-decreasing, violating the paper's monotone-contract assumption.
var ErrNotMonotone = errors.New("contract: knots/compensations must be non-decreasing")

// ErrBadShape is returned for structurally invalid inputs (too few knots,
// mismatched lengths, non-finite values).
var ErrBadShape = errors.New("contract: invalid shape")

// PiecewiseLinear is the contract approximation ζ(x, q) of Eq. (6): for
// q ∈ [d_{l−1}, d_l), compensation is x_{l−1} + α_l·(q − d_{l−1}) with
// α_l = (x_l − x_{l−1}) / (d_l − d_{l−1}).
//
// Knots has length m+1 (d_0..d_m) and Comps has length m+1 (x_0..x_m), with
// x_0 the compensation at the zero-effort feedback d_0 = ψ(0).
type PiecewiseLinear struct {
	knots []float64
	comps []float64
}

// New validates knots and compensations and returns the contract. Both
// slices are copied; callers may reuse their buffers.
func New(knots, comps []float64) (*PiecewiseLinear, error) {
	if err := validate(knots, comps); err != nil {
		return nil, err
	}
	return &PiecewiseLinear{
		knots: append([]float64(nil), knots...),
		comps: append([]float64(nil), comps...),
	}, nil
}

// NewShared is New without the copies: the contract keeps both slices,
// so a family of contracts over one feedback grid — a design menu's
// candidates — shares a single knots array. The caller must never modify
// either slice afterwards (a contract never does).
func NewShared(knots, comps []float64) (*PiecewiseLinear, error) {
	if err := validate(knots, comps); err != nil {
		return nil, err
	}
	return &PiecewiseLinear{knots: knots[:len(knots):len(knots)], comps: comps[:len(comps):len(comps)]}, nil
}

// validate checks a contract's shape: equal lengths, at least one piece,
// finite non-negative entries, strictly increasing knots and
// non-decreasing compensations.
func validate(knots, comps []float64) error {
	if len(knots) != len(comps) {
		return fmt.Errorf("%d knots vs %d compensations: %w", len(knots), len(comps), ErrBadShape)
	}
	if len(knots) < 2 {
		return fmt.Errorf("need at least 2 knots, got %d: %w", len(knots), ErrBadShape)
	}
	for i := range knots {
		if math.IsNaN(knots[i]) || math.IsInf(knots[i], 0) || math.IsNaN(comps[i]) || math.IsInf(comps[i], 0) {
			return fmt.Errorf("non-finite entry at %d: %w", i, ErrBadShape)
		}
		if comps[i] < 0 {
			return fmt.Errorf("negative compensation %v at %d: %w", comps[i], i, ErrBadShape)
		}
	}
	for i := 1; i < len(knots); i++ {
		if knots[i] <= knots[i-1] {
			return fmt.Errorf("knot %d (%v) <= knot %d (%v): %w", i, knots[i], i-1, knots[i-1], ErrNotMonotone)
		}
		if comps[i] < comps[i-1] {
			return fmt.Errorf("compensation %d (%v) < %d (%v): %w", i, comps[i], i-1, comps[i-1], ErrNotMonotone)
		}
	}
	return nil
}

// Pieces returns m, the number of linear pieces.
func (c *PiecewiseLinear) Pieces() int { return len(c.knots) - 1 }

// Knot returns d_l for l in [0, m].
func (c *PiecewiseLinear) Knot(l int) float64 { return c.knots[l] }

// Comp returns x_l for l in [0, m].
func (c *PiecewiseLinear) Comp(l int) float64 { return c.comps[l] }

// Knots returns a copy of the knot feedbacks d_0..d_m.
func (c *PiecewiseLinear) Knots() []float64 { return append([]float64(nil), c.knots...) }

// Comps returns a copy of the knot compensations x_0..x_m.
func (c *PiecewiseLinear) Comps() []float64 { return append([]float64(nil), c.comps...) }

// Slope returns the contract slope α_l on piece l (1-based, l in [1, m]).
func (c *PiecewiseLinear) Slope(l int) float64 {
	if l < 1 || l > c.Pieces() {
		panic(fmt.Sprintf("contract: slope index %d out of [1, %d]", l, c.Pieces()))
	}
	return (c.comps[l] - c.comps[l-1]) / (c.knots[l] - c.knots[l-1])
}

// Increment returns the contract increment Δx_l = x_l − x_{l−1} for piece l.
func (c *PiecewiseLinear) Increment(l int) float64 {
	if l < 1 || l > c.Pieces() {
		panic(fmt.Sprintf("contract: increment index %d out of [1, %d]", l, c.Pieces()))
	}
	return c.comps[l] - c.comps[l-1]
}

// Eval computes the compensation ζ(x, q) for feedback q. Feedback below d_0
// pays x_0; feedback at or above d_m pays x_m (the contract is flat outside
// its knot range, matching the paper's flat continuation after the target
// interval).
func (c *PiecewiseLinear) Eval(q float64) float64 {
	m := c.Pieces()
	if q <= c.knots[0] {
		return c.comps[0]
	}
	if q >= c.knots[m] {
		return c.comps[m]
	}
	// Binary search for the piece with knots[l-1] <= q < knots[l].
	lo, hi := 0, m
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if c.knots[mid] <= q {
			lo = mid
		} else {
			hi = mid
		}
	}
	alpha := (c.comps[hi] - c.comps[lo]) / (c.knots[hi] - c.knots[lo])
	return c.comps[lo] + alpha*(q-c.knots[lo])
}

// MaxComp returns the largest compensation the contract can pay, x_m.
func (c *PiecewiseLinear) MaxComp() float64 { return c.comps[len(c.comps)-1] }

// Equal reports whether two contracts have identical knots and
// compensations (exact float equality; used by tests and codecs).
func (c *PiecewiseLinear) Equal(o *PiecewiseLinear) bool {
	if c.Pieces() != o.Pieces() {
		return false
	}
	for i := range c.knots {
		if c.knots[i] != o.knots[i] || c.comps[i] != o.comps[i] {
			return false
		}
	}
	return true
}

// contractJSON is the serialized form.
type contractJSON struct {
	Knots []float64 `json:"knots"`
	Comps []float64 `json:"comps"`
}

// MarshalJSON implements json.Marshaler.
func (c *PiecewiseLinear) MarshalJSON() ([]byte, error) {
	return json.Marshal(contractJSON{Knots: c.knots, Comps: c.comps})
}

// UnmarshalJSON implements json.Unmarshaler, revalidating the payload.
func (c *PiecewiseLinear) UnmarshalJSON(data []byte) error {
	var raw contractJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("contract: decode: %w", err)
	}
	built, err := New(raw.Knots, raw.Comps)
	if err != nil {
		return err
	}
	*c = *built
	return nil
}

// String renders the contract compactly.
func (c *PiecewiseLinear) String() string {
	return fmt.Sprintf("contract{m=%d, d=[%.4g..%.4g], x=[%.4g..%.4g]}",
		c.Pieces(), c.knots[0], c.knots[len(c.knots)-1], c.comps[0], c.comps[len(c.comps)-1])
}

// Flat returns a constant contract paying amount for any feedback over the
// given knot range. Used by baselines (fixed-payment pricing).
func Flat(dLo, dHi, amount float64) (*PiecewiseLinear, error) {
	if amount < 0 {
		return nil, fmt.Errorf("negative flat amount %v: %w", amount, ErrBadShape)
	}
	return New([]float64{dLo, dHi}, []float64{amount, amount})
}

// Builder incrementally constructs a PiecewiseLinear contract from left to
// right, the access pattern of the candidate-construction algorithm
// (§IV-C Part 2).
type Builder struct {
	knots []float64
	comps []float64
}

// NewBuilder starts a contract at the zero-effort knot (d0, x0).
func NewBuilder(d0, x0 float64) *Builder {
	return &Builder{knots: []float64{d0}, comps: []float64{x0}}
}

// Append adds the next knot with the given compensation.
func (b *Builder) Append(d, x float64) {
	b.knots = append(b.knots, d)
	b.comps = append(b.comps, x)
}

// AppendSlope adds the next knot d, deriving compensation from the previous
// knot and the given slope α: x = x_prev + α·(d − d_prev).
func (b *Builder) AppendSlope(d, alpha float64) {
	prevD := b.knots[len(b.knots)-1]
	prevX := b.comps[len(b.comps)-1]
	b.Append(d, prevX+alpha*(d-prevD))
}

// Len returns the number of knots appended so far.
func (b *Builder) Len() int { return len(b.knots) }

// Build validates and freezes the contract.
func (b *Builder) Build() (*PiecewiseLinear, error) {
	return New(b.knots, b.comps)
}
