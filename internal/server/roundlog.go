package server

import (
	"math"
	"slices"
	"strings"
	"unsafe"

	"dyncontract/internal/engine"
	"dyncontract/internal/worker"
)

// roundLog is a session's retained ledger in compact form. A worker's
// outcome repeats round after round until its weight, parameters or
// contract move (the contract maps q_i^{t−1} to c_i^t, §II), and a worker
// whose weight or parameters go back to earlier values gets an earlier
// outcome back. So the log stores each distinct outcome of an agent once,
// in an append-only table, and each round as a row of 4-byte references
// into it. A row is stored either full (one reference per agent in
// agent-ID order) or as a delta against the previous round: the changed
// references, the leavers and the joiners. round(i) rebuilds exactly the
// engine.Round that was added: a reference is reused only when the new
// outcome is bitwise equal to the entry it points at.
//
// The table is a directory of fixed-size chunks (tableChunk entries each)
// that only ever gains chunks, so a push never copies the table and at
// most one chunk is allocated but not yet filled. Table entries and
// completed rows are never mutated, and add only ever writes past the
// current lengths — the entry count, the directory's length and the
// rows'. A copy of the log header taken under the session's ledger lock
// (view) therefore stays a consistent, readable view of its rounds
// without any lock — the background snapshot and GET …/rounds rely on it.
type roundLog struct {
	// chunks is the table's chunk directory: entry ref lives in
	// chunks[ref>>chunkShift][ref&chunkMask], and entries is how many
	// the table holds.
	chunks  []*[tableChunk]logEntry
	entries int
	rows    []logRow
	// total is engine.TotalUtility over the rows, kept as a running sum
	// in the same order with the same non-finite skip, so it is
	// bit-identical to a rescan.
	total float64
	// bytes is what the table and rows retain: 4 per full-row reference,
	// 8 per edit, 4 per leaver or joiner and one entry per table entry.
	bytes int64
	// w is the writer's state. round never reads it and view drops it.
	w logWriter
}

// logEntry is one distinct outcome: engine.AgentOutcome's fields in the
// same order, plus prev, the agent's previous distinct entry (noRef for
// none). prev sits in the padding after declined, so an entry takes no
// more room than the AgentOutcome it stores.
type logEntry struct {
	agentID                                string
	class                                  worker.Class
	size                                   int
	excluded, declined                     bool
	prev                                   uint32
	effort, feedback, compensation, weight float64
}

// logRow is one round: its aggregates plus either a table reference per
// agent (a full row) or its changes against the previous round (a delta
// row). A delta addresses agents by slot: the stretch from the last full
// row numbers that row's agents 0..n−1 by position and each later joiner
// with the next number, in join order.
type logRow struct {
	index                  int
	benefit, cost, utility float64
	delta                  bool
	// refs holds a full row's references, and a delta row's joiners' in
	// slot order.
	refs []uint32
	// edits and leaves are a delta row's changed slots and the slots of
	// the agents that left.
	edits  []logEdit
	leaves []uint32
}

// logEdit sets slot pos to reference ref.
type logEdit struct{ pos, ref uint32 }

// logWriter is the writer-only state of a roundLog. None of it aliases a
// row or an entry, so recycling it cannot touch what a view reads.
type logWriter struct {
	// cur holds the newest round's agents in agent-ID order, and next is
	// scratch for the round being added.
	cur, next []logAgent
	// edits, leaves and joins collect the changes of the round being
	// added (joins as positions in next).
	edits  []logEdit
	leaves []uint32
	joins  []int
	// slots is how many slots the current stretch has numbered.
	slots uint32
	// sinceFull counts the changes stored since the last full row; a
	// delta row with no changes counts as one, so a stretch of unchanged
	// rounds cannot make round walk unboundedly many rows.
	sinceFull int
}

// logAgent is the writer's view of one agent in the newest round: its
// reference, the newest entry of its chain (where add looks for a
// changed outcome it already had) and its slot in the current stretch.
type logAgent struct{ ref, head, slot uint32 }

// internDepth is how many of an agent's distinct entries, newest first,
// add compares a changed outcome against before appending a new one. It
// is a constant, so add costs O(n + changed·internDepth).
const internDepth = 8

// noRef marks "no entry": the end of a chain, or a slot whose agent left.
const noRef = math.MaxUint32

// tableChunk is how many entries one table chunk holds: 1024 entries of
// 72 B are 72 KiB, exactly nine of the Go runtime's 8 KiB pages, so a
// chunk wastes no page and a session's table leaves less than one chunk
// unused.
const (
	chunkShift = 10
	tableChunk = 1 << chunkShift
	chunkMask  = tableChunk - 1
)

const (
	entryBytes = int64(unsafe.Sizeof(logEntry{}))
	refBytes   = int64(unsafe.Sizeof(uint32(0)))
	editBytes  = int64(unsafe.Sizeof(logEdit{}))
)

// len is the number of rounds in the log.
func (l *roundLog) len() int { return len(l.rows) }

// entry returns table entry ref.
func (l *roundLog) entry(ref uint32) *logEntry {
	return &l.chunks[ref>>chunkShift][ref&chunkMask]
}

// view returns a copy of the log header without the writer's state: the
// chunk directory, the entry count and the rows. Taken under the ledger
// lock, it reads every round added so far without a lock while the
// writer keeps adding.
func (l *roundLog) view() roundLog {
	v := *l
	v.w = logWriter{}
	return v
}

// add appends a completed round. It does not retain r.Outcomes, which
// may alias the engine's reusable buffer. Both the new outcomes and the
// previous round are in agent-ID order, so one merge walk pairs each
// agent with its previous outcome; the agents left unpaired on either
// side are the leavers and the joiners. A paired agent whose outcome
// changed gets the newest of its last internDepth distinct entries that
// is bitwise equal, or a new entry. The same walk decides the row's form:
// a delta when the changes since the last full row, this round's
// included, are at most half the row's length — so no stretch holds more
// reference bytes than full rows would — and a full row otherwise.
func (l *roundLog) add(r engine.Round) {
	w := &l.w
	prev := w.cur
	n := len(r.Outcomes)
	if cap(w.next) < n {
		w.next = make([]logAgent, n)
	}
	next := w.next[:n]
	w.edits, w.leaves, w.joins = w.edits[:0], w.leaves[:0], w.joins[:0]
	k := 0
	for i := range r.Outcomes {
		oc := &r.Outcomes[i]
		if k < len(prev) && sameOutcome(l.entry(prev[k].ref), oc) {
			next[i] = prev[k] // unchanged: most agents, most rounds
			k++
			continue
		}
		for k < len(prev) && l.entry(prev[k].ref).agentID < oc.AgentID {
			w.leaves = append(w.leaves, prev[k].slot)
			k++
		}
		if k == len(prev) || l.entry(prev[k].ref).agentID != oc.AgentID {
			// A joiner starts a chain of its own; its slot depends on
			// the row's form.
			ref := l.push(oc, noRef)
			next[i] = logAgent{ref: ref, head: ref}
			w.joins = append(w.joins, i)
			continue
		}
		a := prev[k]
		k++ // IDs are unique: no later agent pairs with this one
		// The fast path above may have compared a leaver.
		if !sameOutcome(l.entry(a.ref), oc) {
			a.ref, a.head = l.intern(oc, a.ref, a.head)
			w.edits = append(w.edits, logEdit{a.slot, a.ref})
		}
		next[i] = a
	}
	for ; k < len(prev); k++ {
		w.leaves = append(w.leaves, prev[k].slot)
	}
	row := logRow{index: r.Index, benefit: r.Benefit, cost: r.Cost, utility: r.Utility}
	changes := len(w.edits) + len(w.leaves) + len(w.joins)
	if step := max(changes, 1); len(l.rows) > 0 && 2*(w.sinceFull+step) <= n {
		row.delta = true
		if len(w.edits) > 0 {
			row.edits = slices.Clone(w.edits)
		}
		if len(w.leaves) > 0 {
			row.leaves = slices.Clone(w.leaves)
		}
		if len(w.joins) > 0 {
			row.refs = make([]uint32, len(w.joins))
			for j, i := range w.joins {
				next[i].slot = w.slots
				w.slots++
				row.refs[j] = next[i].ref
			}
		}
		w.sinceFull += step
		l.bytes += editBytes*int64(len(w.edits)) + refBytes*int64(len(w.leaves)+len(w.joins))
	} else {
		row.refs = make([]uint32, n)
		for i := range next {
			row.refs[i] = next[i].ref
			next[i].slot = uint32(i)
		}
		w.slots = uint32(n)
		w.sinceFull = 0
		l.bytes += refBytes * int64(n)
	}
	l.rows = append(l.rows, row)
	w.cur, w.next = next, prev
	if !math.IsNaN(r.Utility) && !math.IsInf(r.Utility, 0) {
		l.total += r.Utility
	}
}

// intern returns the reference for oc, a changed outcome of the agent
// whose reference was cur and whose chain starts at head, and the chain's
// new head: an entry among the newest internDepth of the chain that is
// bitwise equal to oc, or else a new entry linked to head.
func (l *roundLog) intern(oc *engine.AgentOutcome, cur, head uint32) (ref, newHead uint32) {
	for e, d := head, 0; e != noRef && d < internDepth; e, d = l.entry(e).prev, d+1 {
		if e != cur && sameOutcome(l.entry(e), oc) {
			return e, head
		}
	}
	ref = l.push(oc, head)
	return ref, ref
}

// push appends oc to the table, linked to prev, and returns its reference.
func (l *roundLog) push(oc *engine.AgentOutcome, prev uint32) uint32 {
	// 2^32 entries of 72 B would be ~300 GB: memory runs out first.
	ref := uint32(l.entries)
	if ref&chunkMask == 0 {
		// Past every view's chunks: a view never reads the new one.
		l.chunks = append(l.chunks, new([tableChunk]logEntry))
	}
	*l.entry(ref) = logEntry{
		agentID:      oc.AgentID,
		class:        oc.Class,
		size:         oc.Size,
		excluded:     oc.Excluded,
		declined:     oc.Declined,
		prev:         prev,
		effort:       oc.Effort,
		feedback:     oc.Feedback,
		compensation: oc.Compensation,
		weight:       oc.Weight,
	}
	l.entries++
	l.bytes += entryBytes
	return ref
}

// round rebuilds round i with a freshly allocated Outcomes slice: it
// numbers the nearest full row at or before i's references as slots,
// applies the changes of every delta row up to i, and merges the full
// row's surviving agents, already in agent-ID order, with the joiners
// since, sorted by ID.
func (l *roundLog) round(i int) engine.Round {
	base := i
	for l.rows[base].delta {
		base--
	}
	nfull := len(l.rows[base].refs)
	slots := slices.Clone(l.rows[base].refs)
	for _, row := range l.rows[base+1 : i+1] {
		slots = append(slots, row.refs...)
		for _, s := range row.leaves {
			slots[s] = noRef
		}
		for _, e := range row.edits {
			slots[e.pos] = e.ref
		}
	}
	left := func(ref uint32) bool { return ref == noRef }
	kept := slices.DeleteFunc(slots[:nfull], left)
	joined := slices.DeleteFunc(slots[nfull:], left)
	slices.SortFunc(joined, func(a, b uint32) int {
		return strings.Compare(l.entry(a).agentID, l.entry(b).agentID)
	})
	outs := make([]engine.AgentOutcome, 0, len(kept)+len(joined))
	j := 0
	for _, ref := range kept {
		for ; j < len(joined) && l.entry(joined[j]).agentID < l.entry(ref).agentID; j++ {
			outs = append(outs, l.entry(joined[j]).outcome())
		}
		outs = append(outs, l.entry(ref).outcome())
	}
	for _, ref := range joined[j:] {
		outs = append(outs, l.entry(ref).outcome())
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

// outcome returns the engine.AgentOutcome the entry stores.
func (e *logEntry) outcome() engine.AgentOutcome {
	return engine.AgentOutcome{
		AgentID:      e.agentID,
		Class:        e.class,
		Size:         e.size,
		Excluded:     e.excluded,
		Declined:     e.declined,
		Effort:       e.effort,
		Feedback:     e.feedback,
		Compensation: e.compensation,
		Weight:       e.weight,
	}
}

// sameOutcome reports whether an entry stores an outcome bitwise equal to
// oc: floats are compared by their bits, so −0 and +0 differ and a NaN
// matches the same NaN — a reused reference must round-trip every bit.
func sameOutcome(e *logEntry, oc *engine.AgentOutcome) bool {
	return e.agentID == oc.AgentID &&
		e.class == oc.Class &&
		e.size == oc.Size &&
		e.excluded == oc.Excluded &&
		e.declined == oc.Declined &&
		math.Float64bits(e.effort) == math.Float64bits(oc.Effort) &&
		math.Float64bits(e.feedback) == math.Float64bits(oc.Feedback) &&
		math.Float64bits(e.compensation) == math.Float64bits(oc.Compensation) &&
		math.Float64bits(e.weight) == math.Float64bits(oc.Weight)
}
