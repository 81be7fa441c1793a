package server

import (
	"math"
	"unsafe"

	"dyncontract/internal/engine"
)

// roundLog is a session's retained ledger in compact form. A worker's
// outcome repeats round after round until its weight, parameters or
// contract move (the contract maps q_i^{t−1} to c_i^t, §II), so the log
// stores each distinct outcome once, in an append-only table, and each
// round as a row of 4-byte references into it, one per agent in agent-ID
// order. Most rounds change few references, so a row is stored either
// full (every reference) or as a delta: the (position, reference) edits
// against the previous round. round(i) rebuilds exactly the engine.Round
// that was added: a reference is reused only when the new outcome is
// bitwise equal to the one it points at.
//
// Table entries and completed rows are never mutated, and add only ever
// writes past the current lengths. A copy of the log header taken under
// the session's ledger lock (view) therefore stays a consistent, readable
// view of its rounds without any lock — the background snapshot and
// GET …/rounds rely on it.
type roundLog struct {
	table []engine.AgentOutcome
	rows  []logRow
	// total is engine.TotalUtility over the rows, kept as a running sum
	// in the same order with the same non-finite skip, so it is
	// bit-identical to a rescan.
	total float64
	// bytes is what the table and rows retain: 4 per full-row reference,
	// 8 per edit and one AgentOutcome per table entry.
	bytes int64

	// Writer-only state, never read by round: cur holds the newest
	// round's full references and next is scratch for the one being
	// added. Neither ever aliases a row, so recycling them cannot touch
	// what a view reads.
	cur, next []uint32
	// sinceFull counts the edits stored since the last full row; a delta
	// row with no edits counts as one, so a stretch of unchanged rounds
	// cannot make round walk unboundedly many rows.
	sinceFull int
}

// logRow is one round: its aggregates plus either a table reference per
// agent (a full row) or the edits against the previous round's
// references (a delta row, same agents at the same positions).
type logRow struct {
	index                  int
	benefit, cost, utility float64
	delta                  bool
	refs                   []uint32
	edits                  []logEdit
}

// logEdit sets position pos of the previous round's references to ref.
type logEdit struct{ pos, ref uint32 }

const (
	outcomeBytes = int64(unsafe.Sizeof(engine.AgentOutcome{}))
	refBytes     = int64(unsafe.Sizeof(uint32(0)))
	editBytes    = int64(unsafe.Sizeof(logEdit{}))
)

// len is the number of rounds in the log.
func (l *roundLog) len() int { return len(l.rows) }

// view returns a copy of the log header without the writer-only buffers.
// Taken under the ledger lock, it reads every round added so far without
// a lock while the writer keeps adding.
func (l *roundLog) view() roundLog {
	v := *l
	v.cur, v.next = nil, nil
	return v
}

// add appends a completed round. It does not retain r.Outcomes, which
// may alias the engine's reusable buffer. Both the new outcomes and the
// previous round are in agent-ID order, so one merge walk pairs each
// agent with its previous outcome; joiners and leavers simply find no
// partner. The same walk decides the row's form: a delta when the agents
// line up position for position with the previous round and the edits
// since the last full row, this round's included, are at most half the
// row's length — so no stretch holds more reference bytes than full rows
// would — and a full row otherwise.
func (l *roundLog) add(r engine.Round) {
	prev := l.cur
	n := len(r.Outcomes)
	if cap(l.next) < n {
		l.next = make([]uint32, n)
	}
	refs := l.next[:n]
	aligned := len(l.rows) > 0 && len(prev) == n
	edits := 0
	k := 0
	for i := range r.Outcomes {
		oc := &r.Outcomes[i]
		for k < len(prev) && l.table[prev[k]].AgentID < oc.AgentID {
			k++
		}
		if k < len(prev) && sameOutcome(&l.table[prev[k]], oc) {
			refs[i] = prev[k]
			aligned = aligned && k == i
			k++ // IDs are unique: no later agent pairs with this entry
			continue
		}
		aligned = aligned && k == i && k < len(prev) && l.table[prev[k]].AgentID == oc.AgentID
		edits++
		// 2^32 entries of 72 B would be ~300 GB: memory runs out first.
		refs[i] = uint32(len(l.table))
		l.table = append(l.table, *oc)
		l.bytes += outcomeBytes
	}
	row := logRow{index: r.Index, benefit: r.Benefit, cost: r.Cost, utility: r.Utility}
	if step := max(edits, 1); aligned && 2*(l.sinceFull+step) <= n {
		row.delta = true
		row.edits = make([]logEdit, 0, edits)
		for i, ref := range refs {
			if ref != prev[i] {
				row.edits = append(row.edits, logEdit{uint32(i), ref})
			}
		}
		l.sinceFull += step
		l.bytes += editBytes * int64(edits)
	} else {
		row.refs = append([]uint32(nil), refs...)
		l.sinceFull = 0
		l.bytes += refBytes * int64(n)
	}
	l.rows = append(l.rows, row)
	l.cur, l.next = refs, prev
	if !math.IsNaN(r.Utility) && !math.IsInf(r.Utility, 0) {
		l.total += r.Utility
	}
}

// round rebuilds round i with a freshly allocated Outcomes slice: the
// nearest full row at or before i, then the edits of every delta row up
// to i.
func (l *roundLog) round(i int) engine.Round {
	base := i
	for l.rows[base].delta {
		base--
	}
	refs := append([]uint32(nil), l.rows[base].refs...)
	for _, row := range l.rows[base+1 : i+1] {
		for _, e := range row.edits {
			refs[e.pos] = e.ref
		}
	}
	outs := make([]engine.AgentOutcome, len(refs))
	for j, ref := range refs {
		outs[j] = l.table[ref]
	}
	row := &l.rows[i]
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
