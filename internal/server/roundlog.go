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
// An entry is (agent, response, weight): a reference to the agent's
// identity (ID, class, size), a reference to its best response (effort,
// feedback, compensation, excluded, declined) and the weight. A worker's
// Lemma 4.1 response depends only on its parameters and its contract
// (§IV-B), so a session sees few distinct responses: each is stored once,
// in a table of its own, whichever agents give it. An agent's identity is
// stored when it joins, and again only when its class or size moves to
// values its recent entries never had.
//
// The three tables are directories of fixed-size chunks (chunked) that
// only ever gain chunks, so a push never copies a table and at most one
// chunk per table is allocated but not yet filled. Table entries and
// completed rows are never mutated, and add only ever writes past the
// current lengths — the tables' counts and directories and the rows'. A
// copy of the log header taken under the session's ledger lock (view)
// therefore stays a consistent, readable view of its rounds without any
// lock — the background snapshot and GET …/rounds rely on it.
type roundLog struct {
	// entries is the outcome table; agents and resps hold the identities
	// and responses its entries refer to.
	entries chunked[logEntry]
	agents  chunked[logIdentity]
	resps   chunked[logResponse]
	rows    []logRow
	// total is engine.TotalUtility over the rows, kept as a running sum
	// in the same order with the same non-finite skip, so it is
	// bit-identical to a rescan.
	total float64
	// bytes is what the tables and rows retain: 4 per full-row reference,
	// 8 per edit, 4 per leaver or joiner and one table slot per entry,
	// identity and response.
	bytes int64
	// w is the writer's state. round never reads it and view drops it.
	w logWriter
}

// logEntry is one distinct outcome of an agent: its identity, its
// response and its weight, plus prev, the agent's previous distinct entry
// (noRef for none). It takes 24 B where the engine.AgentOutcome it
// stands for takes 72.
type logEntry struct {
	agent, resp, prev uint32
	weight            float64
}

// logIdentity is an agent's identity: engine.AgentOutcome's ID, class and
// size.
type logIdentity struct {
	id    string
	class worker.Class
	size  int
}

// logResponse is a best response: engine.AgentOutcome's flags and
// effort, feedback and compensation.
type logResponse struct {
	effort, feedback, compensation float64
	excluded, declined             bool
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
// row or a table, so recycling it cannot touch what a view reads.
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
	// index finds a response by its bits: an open-addressed hash set of
	// 4-byte response references (noRef marks an empty slot), a power of
	// two long and at most half full.
	index []uint32
	// lastResp is the response add looked up last: agents in ID order
	// often give the response their neighbour gave.
	lastResp uint32
}

// logAgent is the writer's view of one agent in the newest round: its
// reference, the newest entry of its chain (where add looks for a
// changed outcome it already had), its slot in the current stretch and
// its entry's identity — kept here so add loads the entry and the
// identity side by side rather than one after the other.
type logAgent struct{ ref, head, slot, agent uint32 }

// internDepth is how many of an agent's distinct entries, newest first,
// add compares a changed outcome against before appending a new one. It
// is a constant, so add costs O(n + changed·internDepth).
const internDepth = 8

// noRef marks "no entry": the end of a chain, or a slot whose agent left.
const noRef = math.MaxUint32

// tableChunk is how many values one table chunk holds: 1024 entries of
// 24 B are 24 KiB, and 1024 identities or responses of 32 B are 32 KiB —
// each a whole number of the Go runtime's 8 KiB pages, so a chunk wastes
// no page and each table leaves less than one chunk unused.
const (
	chunkShift = 10
	tableChunk = 1 << chunkShift
	chunkMask  = tableChunk - 1
)

const (
	entryBytes    = int64(unsafe.Sizeof(logEntry{}))
	identityBytes = int64(unsafe.Sizeof(logIdentity{}))
	responseBytes = int64(unsafe.Sizeof(logResponse{}))
	refBytes      = int64(unsafe.Sizeof(uint32(0)))
	editBytes     = int64(unsafe.Sizeof(logEdit{}))
)

// chunked is an append-only table of fixed-size chunks: value ref lives
// in chunks[ref>>chunkShift][ref&chunkMask], and n is how many the table
// holds. push never copies the table and never writes below n, so a copy
// of the header reads its first n values while the writer keeps pushing.
type chunked[T any] struct {
	chunks []*[tableChunk]T
	n      int
}

// at returns value ref.
func (c *chunked[T]) at(ref uint32) *T {
	return &c.chunks[ref>>chunkShift][ref&chunkMask]
}

// push appends v and returns its reference.
func (c *chunked[T]) push(v T) uint32 {
	// 2^32 entries of 24 B would be ~100 GB: memory runs out first.
	ref := uint32(c.n)
	if ref&chunkMask == 0 {
		// Past every view's chunks: a view never reads the new one.
		c.chunks = append(c.chunks, new([tableChunk]T))
	}
	*c.at(ref) = v
	c.n++
	return ref
}

// len is the number of rounds in the log.
func (l *roundLog) len() int { return len(l.rows) }

// view returns a copy of the log header without the writer's state: the
// tables' directories and counts and the rows. Taken under the ledger
// lock, it reads every round added so far without a lock while the writer
// keeps adding.
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
		if k < len(prev) && l.sameOutcome(prev[k].ref, prev[k].agent, oc) {
			next[i] = prev[k] // unchanged: most agents, most rounds
			k++
			continue
		}
		for k < len(prev) && l.agents.at(prev[k].agent).id < oc.AgentID {
			w.leaves = append(w.leaves, prev[k].slot)
			k++
		}
		if k == len(prev) || l.agents.at(prev[k].agent).id != oc.AgentID {
			// A joiner starts a chain and an identity of its own; its
			// slot depends on the row's form.
			agent := l.mint(oc)
			ref := l.push(agent, l.response(oc), oc.Weight, noRef)
			next[i] = logAgent{ref: ref, head: ref, agent: agent}
			w.joins = append(w.joins, i)
			continue
		}
		a := prev[k]
		k++ // IDs are unique: no later agent pairs with this one
		// The fast path above may have compared a leaver.
		if !l.sameOutcome(a.ref, a.agent, oc) {
			l.intern(&a, oc)
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

// intern moves a, a paired agent whose outcome changed to oc, to oc's
// entry: one among the newest internDepth of its chain that holds oc's
// identity, response and weight, or else a new entry linked to the chain's
// head, which becomes the new head. Responses are unique by their bits,
// and identity picks the one identity of that window with oc's fields,
// so matching by references is matching bitwise.
func (l *roundLog) intern(a *logAgent, oc *engine.AgentOutcome) {
	agent, resp, bits := l.identity(oc, a.agent, a.head), l.response(oc), math.Float64bits(oc.Weight)
	a.agent = agent
	for e, d := a.head, 0; e != noRef && d < internDepth; e, d = l.entries.at(e).prev, d+1 {
		if x := l.entries.at(e); e != a.ref && x.agent == agent && x.resp == resp && math.Float64bits(x.weight) == bits {
			a.ref = e
			return
		}
	}
	a.ref = l.push(agent, resp, oc.Weight, a.head)
	a.head = a.ref
}

// identity returns the identity reference for oc, a changed outcome of a
// paired agent whose identity was cur and whose chain starts at head: cur
// when oc keeps its class and size, else the identity of an entry among
// the newest internDepth of the chain with oc's class and size, else a
// new identity. The agent's current entry lies in that window, and an
// identity is minted only when no entry of the window has its fields, so
// a window never holds two identities with the same fields.
func (l *roundLog) identity(oc *engine.AgentOutcome, cur, head uint32) uint32 {
	if l.agents.at(cur).is(oc) {
		return cur
	}
	for e, d := head, 0; e != noRef && d < internDepth; e, d = l.entries.at(e).prev, d+1 {
		if a := l.entries.at(e).agent; l.agents.at(a).is(oc) {
			return a
		}
	}
	return l.mint(oc)
}

// mint appends oc's identity and returns its reference.
func (l *roundLog) mint(oc *engine.AgentOutcome) uint32 {
	l.bytes += identityBytes
	return l.agents.push(logIdentity{id: oc.AgentID, class: oc.Class, size: oc.Size})
}

// response returns the reference of the response whose bits are oc's,
// appending it to the response table if there is none.
func (l *roundLog) response(oc *engine.AgentOutcome) uint32 {
	w := &l.w
	if int(w.lastResp) < l.resps.n && l.resps.at(w.lastResp).is(oc) {
		return w.lastResp
	}
	if 2*(l.resps.n+1) > len(w.index) {
		l.growIndex()
	}
	r := responseOf(oc)
	mask := uint64(len(w.index) - 1)
	i := r.hash() & mask
	for ; w.index[i] != noRef; i = (i + 1) & mask {
		if ref := w.index[i]; l.resps.at(ref).is(oc) {
			w.lastResp = ref
			return ref
		}
	}
	ref := l.resps.push(r)
	w.index[i], w.lastResp = ref, ref
	l.bytes += responseBytes
	return ref
}

// growIndex doubles the response index and re-inserts every response.
func (l *roundLog) growIndex() {
	index := make([]uint32, max(2*len(l.w.index), 16))
	for i := range index {
		index[i] = noRef
	}
	mask := uint64(len(index) - 1)
	for ref := uint32(0); int(ref) < l.resps.n; ref++ {
		i := l.resps.at(ref).hash() & mask
		for index[i] != noRef {
			i = (i + 1) & mask
		}
		index[i] = ref
	}
	l.w.index = index
}

// push appends an entry and returns its reference.
func (l *roundLog) push(agent, resp uint32, weight float64, prev uint32) uint32 {
	l.bytes += entryBytes
	return l.entries.push(logEntry{agent: agent, resp: resp, prev: prev, weight: weight})
}

// agentID returns entry ref's agent ID.
func (l *roundLog) agentID(ref uint32) string {
	return l.agents.at(l.entries.at(ref).agent).id
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
		return strings.Compare(l.agentID(a), l.agentID(b))
	})
	outs := make([]engine.AgentOutcome, 0, len(kept)+len(joined))
	j := 0
	for _, ref := range kept {
		for ; j < len(joined) && l.agentID(joined[j]) < l.agentID(ref); j++ {
			outs = append(outs, l.outcome(joined[j]))
		}
		outs = append(outs, l.outcome(ref))
	}
	for _, ref := range joined[j:] {
		outs = append(outs, l.outcome(ref))
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

// outcome returns the engine.AgentOutcome entry ref stores.
func (l *roundLog) outcome(ref uint32) engine.AgentOutcome {
	e := l.entries.at(ref)
	a, r := l.agents.at(e.agent), l.resps.at(e.resp)
	return engine.AgentOutcome{
		AgentID:      a.id,
		Class:        a.class,
		Size:         a.size,
		Excluded:     r.excluded,
		Declined:     r.declined,
		Effort:       r.effort,
		Feedback:     r.feedback,
		Compensation: r.compensation,
		Weight:       e.weight,
	}
}

// sameOutcome reports whether entry ref, whose identity is agent, stores
// an outcome bitwise equal to oc: floats are compared by their bits, so
// −0 and +0 differ and a NaN matches the same NaN — a reused reference
// must round-trip every bit.
func (l *roundLog) sameOutcome(ref, agent uint32, oc *engine.AgentOutcome) bool {
	e := l.entries.at(ref)
	return math.Float64bits(e.weight) == math.Float64bits(oc.Weight) &&
		l.agents.at(agent).is(oc) &&
		l.resps.at(e.resp).is(oc)
}

// is reports whether the identity is oc's.
func (a *logIdentity) is(oc *engine.AgentOutcome) bool {
	return a.id == oc.AgentID && a.class == oc.Class && a.size == oc.Size
}

// responseOf returns oc's response.
func responseOf(oc *engine.AgentOutcome) logResponse {
	return logResponse{
		effort:       oc.Effort,
		feedback:     oc.Feedback,
		compensation: oc.Compensation,
		excluded:     oc.Excluded,
		declined:     oc.Declined,
	}
}

// is reports whether the response is bitwise equal to oc's.
func (r *logResponse) is(oc *engine.AgentOutcome) bool {
	return math.Float64bits(r.effort) == math.Float64bits(oc.Effort) &&
		math.Float64bits(r.feedback) == math.Float64bits(oc.Feedback) &&
		math.Float64bits(r.compensation) == math.Float64bits(oc.Compensation) &&
		r.excluded == oc.Excluded &&
		r.declined == oc.Declined
}

// hash mixes a response's bits, so responses that are bitwise equal hash
// alike and −0/+0 or two NaN payloads most likely do not.
func (r *logResponse) hash() uint64 {
	const mul = 0x9e3779b97f4a7c15
	h := math.Float64bits(r.effort) * mul
	h = (h ^ h>>32 ^ math.Float64bits(r.feedback)) * mul
	h = (h ^ h>>32 ^ math.Float64bits(r.compensation)) * mul
	if r.excluded {
		h ^= 1
	}
	if r.declined {
		h ^= 2
	}
	h = (h ^ h>>32) * mul
	return h ^ h>>32
}
