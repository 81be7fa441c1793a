package server

import (
	"math"

	"dyncontract/internal/engine"
)

// roundLog is a session's retained ledger in compact form. A worker's
// outcome repeats round after round until its weight, parameters or
// contract move (the contract maps q_i^{t−1} to c_i^t, §II), so the log
// stores each distinct outcome once, in an append-only table, and each
// round as one row of 4-byte references into it, one per agent in
// agent-ID order. round(i) rebuilds exactly the engine.Round that was
// added: a reference is reused only when the new outcome is bitwise equal
// to the one it points at.
//
// Table entries and completed rows are never mutated, and add only ever
// writes past the current lengths. A copy of the log header taken under
// the session's ledger lock therefore stays a consistent, readable view
// of its rounds without any lock — the background snapshot relies on it.
type roundLog struct {
	table []engine.AgentOutcome
	rows  []logRow
	// total is engine.TotalUtility over the rows, kept as a running sum
	// in the same order with the same non-finite skip, so it is
	// bit-identical to a rescan.
	total float64
}

// logRow is one round: its aggregates plus a table reference per agent.
type logRow struct {
	index                  int
	benefit, cost, utility float64
	refs                   []uint32
}

// len is the number of rounds in the log.
func (l *roundLog) len() int { return len(l.rows) }

// add appends a completed round. It does not retain r.Outcomes, which
// may alias the engine's reusable buffer. Both the new outcomes and the
// previous row are in agent-ID order, so one merge walk pairs each agent
// with its previous outcome; joiners and leavers simply find no partner.
func (l *roundLog) add(r engine.Round) {
	var prev []uint32
	if n := len(l.rows); n > 0 {
		prev = l.rows[n-1].refs
	}
	refs := make([]uint32, len(r.Outcomes))
	k := 0
	for i := range r.Outcomes {
		oc := &r.Outcomes[i]
		for k < len(prev) && l.table[prev[k]].AgentID < oc.AgentID {
			k++
		}
		if k < len(prev) && sameOutcome(&l.table[prev[k]], oc) {
			refs[i] = prev[k]
			continue
		}
		// 2^32 entries of 72 B would be ~300 GB: memory runs out first.
		refs[i] = uint32(len(l.table))
		l.table = append(l.table, *oc)
	}
	l.rows = append(l.rows, logRow{
		index:   r.Index,
		benefit: r.Benefit,
		cost:    r.Cost,
		utility: r.Utility,
		refs:    refs,
	})
	if !math.IsNaN(r.Utility) && !math.IsInf(r.Utility, 0) {
		l.total += r.Utility
	}
}

// round rebuilds round i with a freshly allocated Outcomes slice.
func (l *roundLog) round(i int) engine.Round {
	row := &l.rows[i]
	outs := make([]engine.AgentOutcome, len(row.refs))
	for j, ref := range row.refs {
		outs[j] = l.table[ref]
	}
	return engine.Round{
		Index:    row.index,
		Outcomes: outs,
		Benefit:  row.benefit,
		Cost:     row.cost,
		Utility:  row.utility,
	}
}

// sameOutcome reports whether two outcomes are bitwise equal: floats are
// compared by their bits, so −0 and +0 differ and a NaN matches the same
// NaN — a reused reference must round-trip every bit.
func sameOutcome(a, b *engine.AgentOutcome) bool {
	return a.AgentID == b.AgentID &&
		a.Class == b.Class &&
		a.Size == b.Size &&
		a.Excluded == b.Excluded &&
		a.Declined == b.Declined &&
		math.Float64bits(a.Effort) == math.Float64bits(b.Effort) &&
		math.Float64bits(a.Feedback) == math.Float64bits(b.Feedback) &&
		math.Float64bits(a.Compensation) == math.Float64bits(b.Compensation) &&
		math.Float64bits(a.Weight) == math.Float64bits(b.Weight)
}
