package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"dyncontract/internal/engine"
	"dyncontract/internal/journal"
	"dyncontract/internal/platform"
	"dyncontract/internal/worker"
)

// outcomeBits renders every field of an outcome, floats by their bits, so
// two renderings are equal exactly when the outcomes are bitwise equal.
// It is deliberately independent of sameOutcome.
func outcomeBits(oc engine.AgentOutcome) string {
	return fmt.Sprintf("%s|%d|%d|%t|%t|%x|%x|%x|%x", oc.AgentID, oc.Class, oc.Size,
		oc.Excluded, oc.Declined, math.Float64bits(oc.Effort), math.Float64bits(oc.Feedback),
		math.Float64bits(oc.Compensation), math.Float64bits(oc.Weight))
}

// roundBits is outcomeBits for a whole round.
func roundBits(r engine.Round) string {
	s := fmt.Sprintf("%d|%x|%x|%x", r.Index, math.Float64bits(r.Benefit),
		math.Float64bits(r.Cost), math.Float64bits(r.Utility))
	for _, oc := range r.Outcomes {
		s += "\n" + outcomeBits(oc)
	}
	return s
}

// checkLogMatches compares every round of the log, read in a shuffled
// order, with a plain retained ledger: bit for bit, and through the audit
// wire form byte for byte (json.Marshal rejects NaN, so a NaN round must
// fail on both sides). It also recounts the retained bytes.
func checkLogMatches(t *testing.T, l *roundLog, ref []engine.Round) {
	t.Helper()
	if l.len() != len(ref) {
		t.Fatalf("log has %d rounds, want %d", l.len(), len(ref))
	}
	for _, i := range rand.New(rand.NewSource(int64(len(ref)))).Perm(len(ref)) {
		got := l.round(i)
		if g, w := roundBits(got), roundBits(ref[i]); g != w {
			t.Fatalf("round %d differs bitwise:\n got %s\nwant %s", i, g, w)
		}
		gb, gerr := json.Marshal(roundJSON(got, true))
		wb, werr := json.Marshal(roundJSON(ref[i], true))
		if (gerr == nil) != (werr == nil) || string(gb) != string(wb) {
			t.Fatalf("round %d wire form differs:\n got %s (%v)\nwant %s (%v)", i, gb, gerr, wb, werr)
		}
	}
	if g, w := math.Float64bits(l.total), math.Float64bits(engine.TotalUtility(ref)); g != w {
		t.Fatalf("running total %v != TotalUtility %v", l.total, engine.TotalUtility(ref))
	}
	if w := recountBytes(l); l.bytes != w {
		t.Fatalf("running byte count %d != recount %d", l.bytes, w)
	}
	checkInterned(t, l)
}

// checkInterned checks what the interning walk guarantees: no table entry
// equals, bitwise, any of the internDepth entries its chain link leads to
// — the newest distinct outcomes its agent had when it was appended.
func checkInterned(t *testing.T, l *roundLog) {
	t.Helper()
	for i := uint32(0); int(i) < l.entries.n; i++ {
		oc := l.outcome(i)
		for e, d := l.entries.at(i).prev, 0; e != noRef && d < internDepth; e, d = l.entries.at(e).prev, d+1 {
			if l.agentID(e) != oc.AgentID {
				t.Fatalf("entry %d (%s) links to entry %d of agent %s", i, oc.AgentID, e, l.agentID(e))
			}
			if l.sameOutcome(e, l.entries.at(e).agent, &oc) {
				t.Fatalf("entry %d repeats entry %d, %d links back in its agent's chain", i, e, d+1)
			}
		}
	}
}

// recountBytes counts what the log retains from its tables and rows: 4 B
// per full-row reference, joiner or leaver, 8 B per edit, 24 B per entry
// and 32 B per identity or response.
func recountBytes(l *roundLog) int64 {
	n := 24*l.entries.n + 32*(l.agents.n+l.resps.n)
	for _, row := range l.rows {
		n += 4*len(row.refs) + 8*len(row.edits) + 4*len(row.leaves)
	}
	return int64(n)
}

// rowForms counts the log's full and delta rows.
func rowForms(l *roundLog) (full, delta int) {
	for _, row := range l.rows {
		if row.delta {
			delta++
		} else {
			full++
		}
	}
	return full, delta
}

// addScribbled adds r to the log and a copy to the plain ledger, then
// scribbles over r.Outcomes, as the engine reuses its buffer.
func addScribbled(l *roundLog, ref []engine.Round, r engine.Round) []engine.Round {
	l.add(r)
	cp := r
	cp.Outcomes = append([]engine.AgentOutcome(nil), r.Outcomes...)
	for i := range r.Outcomes {
		r.Outcomes[i] = engine.AgentOutcome{AgentID: "scribbled", Effort: -1}
	}
	return append(ref, cp)
}

// TestRoundLogDifferential drives the compact log and a plain []Round
// ledger with the same random rounds — joins and leaves, weights toggling
// back to old values, Excluded/Declined flips, signed zeros and NaN — and
// requires every round to come back identical. Each round is fed from one
// reused buffer that is scribbled over after add, as the engine's is.
func TestRoundLogDifferential(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 0.5, 1.25, math.Inf(1)}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		state := map[string]engine.AgentOutcome{}
		next := 0
		join := func() {
			id := fmt.Sprintf("a%03d", next)
			next++
			state[id] = engine.AgentOutcome{
				AgentID: id,
				Class:   worker.Class(rng.Intn(3)),
				Size:    1 + rng.Intn(3),
				Weight:  0.5,
			}
		}
		for i := 0; i < 12; i++ {
			join()
		}
		var l roundLog
		var ref []engine.Round
		var buf []engine.AgentOutcome
		for r := 0; r < 60; r++ {
			// Joins and leaves.
			for n := rng.Intn(3); n > 0; n-- {
				join()
			}
			for id := range state {
				if rng.Intn(25) == 0 {
					delete(state, id)
				}
			}
			// Per-agent mutations; most agents repeat their outcome.
			for id, oc := range state {
				switch rng.Intn(10) {
				case 0:
					if oc.Weight == 0.5 {
						oc.Weight = 0.8
					} else {
						oc.Weight = 0.5
					}
				case 1:
					oc.Excluded = !oc.Excluded
				case 2:
					oc.Declined = !oc.Declined
				case 3:
					oc.Effort = floats[rng.Intn(len(floats))]
				case 4:
					oc.Compensation = floats[rng.Intn(len(floats))]
				case 5:
					oc.Feedback = floats[rng.Intn(len(floats))]
				}
				state[id] = oc
			}
			ids := make([]string, 0, len(state))
			for id := range state {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			buf = buf[:0]
			for _, id := range ids {
				buf = append(buf, state[id])
			}
			ref = addScribbled(&l, ref, engine.Round{
				Index:    r,
				Outcomes: buf,
				Benefit:  rng.Float64(),
				Cost:     rng.Float64(),
				Utility:  floats[rng.Intn(len(floats))] + rng.Float64(),
			})
		}
		checkLogMatches(t, &l, ref)
		if l.entries.n >= 60*len(state) {
			t.Errorf("seed %d: table holds %d outcomes for 60 mostly repeating rounds", seed, l.entries.n)
		}
	}

	// A long low-change schedule: 40 agents, 0–3 weight flips a round and
	// a rare join or leave, so the edits since the last full row cross
	// half the row's length again and again and most rows are deltas.
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var agents []engine.AgentOutcome
		for i := 0; i < 40; i++ {
			agents = append(agents, engine.AgentOutcome{AgentID: fmt.Sprintf("a%03d", 2*i), Weight: 0.5})
		}
		var l roundLog
		var ref []engine.Round
		var buf []engine.AgentOutcome
		for r := 0; r < 400; r++ {
			for n := rng.Intn(4); n > 0; n-- {
				oc := &agents[rng.Intn(len(agents))]
				oc.Weight = 1.3 - oc.Weight
			}
			switch rng.Intn(60) {
			case 0:
				id := fmt.Sprintf("a%03d", 2*rng.Intn(60)+1)
				j := sort.Search(len(agents), func(j int) bool { return agents[j].AgentID >= id })
				if j == len(agents) || agents[j].AgentID != id {
					agents = append(agents[:j], append([]engine.AgentOutcome{{AgentID: id, Weight: 0.5}}, agents[j:]...)...)
				}
			case 1:
				j := rng.Intn(len(agents))
				agents = append(agents[:j], agents[j+1:]...)
			}
			buf = append(buf[:0], agents...)
			ref = addScribbled(&l, ref, engine.Round{Index: r, Outcomes: buf, Utility: rng.Float64()})
		}
		checkLogMatches(t, &l, ref)
		full, delta := rowForms(&l)
		if full < 10 || delta < 300 {
			t.Errorf("seed %d: %d full and %d delta rows; want the full-row rule crossed >= 10 times and most rows deltas", seed, full, delta)
		}
	}

	// Interned responses and identities. 300 agents of every class and
	// two sizes give one response under 300 weights: the response table
	// holds it once. Two agents then move to responses that differ from
	// the shared one only by the sign of a zero or by a NaN payload, and
	// each must get a response of its own. Last, one agent's weight and
	// one agent's class go and come back: intern must return their old
	// entries, matched by (identity, response, weight) references, and the
	// class that came back must find its old identity.
	agents := make([]engine.AgentOutcome, 300)
	for i := range agents {
		agents[i] = engine.AgentOutcome{
			AgentID:  fmt.Sprintf("a%03d", i),
			Class:    worker.Class(i % 3),
			Size:     1 + i%2,
			Effort:   0.5,
			Feedback: math.NaN(),
			Weight:   0.5 + float64(i),
		}
	}
	var l roundLog
	var ref []engine.Round
	add := func() {
		ref = addScribbled(&l, ref, engine.Round{Index: len(ref), Outcomes: slices.Clone(agents)})
	}
	add()
	if l.resps.n != 1 {
		t.Fatalf("300 agents giving one response: %d responses, want 1", l.resps.n)
	}
	agents[1].Compensation = math.Copysign(0, -1)
	agents[2].Feedback = math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	add()
	resp := func(i int) uint32 { return l.entries.at(l.w.cur[i].ref).resp }
	if l.resps.n != 3 || resp(0) == resp(1) || resp(0) == resp(2) || resp(1) == resp(2) {
		t.Fatalf("−0 and a second NaN payload: %d responses (refs %d, %d, %d), want 3 distinct",
			l.resps.n, resp(0), resp(1), resp(2))
	}
	wref, cref := l.w.cur[3].ref, l.w.cur[4].ref
	weight, class := agents[3].Weight, agents[4].Class
	agents[3].Weight += 100
	agents[4].Class = (class + 1) % 3
	add()
	entries, identities := l.entries.n, l.agents.n
	agents[3].Weight, agents[4].Class = weight, class
	add()
	if l.w.cur[3].ref != wref || l.w.cur[4].ref != cref || l.entries.n != entries || l.agents.n != identities {
		t.Errorf("reverted agents got entries %d and %d (want %d and %d), tables %d entries and %d identities (want %d and %d)",
			l.w.cur[3].ref, l.w.cur[4].ref, wref, cref, l.entries.n, l.agents.n, entries, identities)
	}
	checkLogMatches(t, &l, ref)
}

// FuzzRoundLog drives the log with a byte-scripted sequence of rounds —
// unchanged rounds, a few or all agents changing, joins and leaves alone
// or together with edits (so they land inside delta stretches), IDs that
// left re-joining with another class or size, agents reverting to a state
// they had up to 12 distinct states ago (past internDepth),
// Excluded/Declined flips, ±0 flips and NaN flips in two payloads —
// against a plain retained []engine.Round, reading the rounds back in a
// shuffled order. Some script bytes take a header copy (view)
// mid-sequence; a goroutine reads it while further rounds are added (run
// under -race), and after the last add the copy must still read its
// prefix bit for bit.
func FuzzRoundLog(f *testing.F) {
	f.Add([]byte{0, 1, 9, 17, 7, 0, 2, 3, 40, 4, 3, 5, 6, 1, 7, 14, 2, 0, 0})
	f.Add([]byte{1, 5, 1, 6, 1, 7, 1, 8, 7, 1, 9, 1, 10, 1, 11, 0, 0, 0, 0, 0, 0, 7, 2})
	f.Add([]byte{3, 200, 3, 100, 4, 0, 7, 6, 2, 22, 6, 3, 38, 7, 5, 1, 13, 4, 2, 2, 2})
	f.Add([]byte{1, 3, 1, 4, 1, 3, 8, 3, 1, 8, 3, 12, 23, 5, 4, 8, 8, 3, 9, 10, 7, 10, 3, 20, 9, 1, 0, 8, 3, 30})
	f.Add([]byte{12, 1, 12, 5, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 8, 1, 11, 8, 1, 10, 15, 4, 9, 0, 20, 2})
	// Two seeds that fill more than one table chunk: 40 joins, then every
	// agent changing round after round — alone, and alternating with
	// churn (op 10: a join, a leave and a weight change) — with header
	// copies taken on both sides of the first chunk boundary.
	for _, mix := range [][]byte{nil, {10, 5, 9, 1}} {
		seed := []byte{7}
		for id := 1; id < 80; id += 2 {
			seed = append(seed, 3, byte(id))
		}
		for k := 0; k < 30; k++ {
			seed = append(seed, 2)
			seed = append(seed, mix...)
			if k%10 == 9 {
				seed = append(seed, 7)
			}
		}
		f.Add(seed)
	}
	// Four seeds aimed at interning: many agents sharing one response
	// while weights flip; two agents whose efforts differ only by the sign
	// of a zero or by a NaN payload (ops 105, 17 and 116); an agent
	// flipping its weight back and forth and reverting, so intern matches
	// old entries by reference; and an agent that leaves, re-joins with
	// another class (op 20) and reverts between its two classes, so a
	// paired agent's class moves back to one its chain already has.
	f.Add([]byte{3, 1, 3, 3, 3, 5, 3, 7, 3, 9, 2, 1, 0, 1, 8, 1, 16, 2, 1, 0})
	f.Add([]byte{17, 0, 116, 1, 105, 2, 0, 17, 3, 116, 4, 105, 5, 0})
	f.Add([]byte{1, 3, 1, 3, 8, 3, 0, 1, 3, 1, 3, 8, 3, 5, 1, 3})
	f.Add([]byte{0, 4, 0, 20, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0})
	negZero := math.Copysign(0, -1)
	floats := []float64{0, negZero, math.NaN(), 0.5}
	// nanPayload is a NaN that differs from math.NaN() in its payload.
	nanPayload := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	f.Fuzz(func(t *testing.T, script []byte) {
		pos := 0
		next := func() int {
			if pos >= len(script) {
				return 0
			}
			pos++
			return int(script[pos-1])
		}
		var agents, left []engine.AgentOutcome
		join := func(oc engine.AgentOutcome) {
			j := sort.Search(len(agents), func(j int) bool { return agents[j].AgentID >= oc.AgentID })
			if j < len(agents) && agents[j].AgentID == oc.AgentID {
				return
			}
			agents = slices.Insert(agents, j, oc)
		}
		leave := func(j int) {
			left = append(left, agents[j])
			agents = slices.Delete(agents, j, j+1)
		}
		for i := 0; i < 16; i++ {
			join(engine.AgentOutcome{AgentID: fmt.Sprintf("a%03d", 8*i), Size: 1, Weight: 0.5})
		}
		// history holds each agent's distinct states, oldest first.
		history := map[string][]engine.AgentOutcome{}
		type view struct {
			l    roundLog
			seen []string
		}
		var views []*view
		var wg sync.WaitGroup
		var l roundLog
		var ref []engine.Round
		var buf []engine.AgentOutcome
		pick := func() *engine.AgentOutcome {
			if len(agents) == 0 {
				return &engine.AgentOutcome{}
			}
			return &agents[next()%len(agents)]
		}
		for pos < len(script) && len(ref) < 300 {
			op := next()
			switch op % 11 {
			case 1: // a few agents change weight
				for n := 1 + (op>>3)%4; n > 0; n-- {
					oc := pick()
					oc.Weight = 1.3 - oc.Weight
				}
			case 2: // every agent changes
				for i := range agents {
					agents[i].Effort += 1
				}
			case 3: // join
				join(engine.AgentOutcome{AgentID: fmt.Sprintf("a%03d", next()), Size: 1, Weight: 0.5})
			case 4: // leave
				if len(agents) > 0 {
					leave(next() % len(agents))
				}
			case 5: // Excluded/Declined flips
				oc := pick()
				if op&8 != 0 {
					oc.Excluded = !oc.Excluded
				} else {
					oc.Declined = !oc.Declined
				}
			case 6: // ±0 and NaN flips, in two NaN payloads
				oc := pick()
				v := floats[(op>>3)%len(floats)]
				if math.IsNaN(v) && op&4 != 0 {
					v = nanPayload
				}
				switch (op >> 5) % 3 {
				case 0:
					oc.Effort = v
				case 1:
					oc.Feedback = v
				default:
					oc.Compensation = v
				}
			case 7: // a header copy, read concurrently with later adds
				if len(views) < 4 {
					v := &view{l: l.view()}
					views = append(views, v)
					wg.Add(1)
					go func() {
						defer wg.Done()
						v.seen = make([]string, v.l.len())
						for _, i := range rand.New(rand.NewSource(int64(len(v.seen)))).Perm(len(v.seen)) {
							v.seen[i] = roundBits(v.l.round(i))
						}
					}()
				}
			case 8: // an agent reverts to an earlier distinct state
				oc := pick()
				if h := history[oc.AgentID]; len(h) > 1 {
					*oc = h[max(len(h)-2-next()%12, 0)]
				}
			case 9: // an ID that left re-joins with another class or size
				if len(left) > 0 {
					oc := left[next()%len(left)]
					if op&16 != 0 {
						oc.Class = (oc.Class + 1) % 3
					} else {
						oc.Size++
					}
					join(oc)
				}
			case 10: // churn: a join, a leave and a weight change at once
				join(engine.AgentOutcome{AgentID: fmt.Sprintf("a%03d", next()), Size: 1, Weight: 0.5})
				if len(agents) > 1 {
					leave(next() % len(agents))
				}
				oc := pick()
				oc.Weight = 1.3 - oc.Weight
			}
			for _, oc := range agents {
				h := history[oc.AgentID]
				if len(h) == 0 || outcomeBits(h[len(h)-1]) != outcomeBits(oc) {
					history[oc.AgentID] = append(h, oc)
				}
			}
			buf = append(buf[:0], agents...)
			ref = addScribbled(&l, ref, engine.Round{
				Index:    len(ref),
				Outcomes: buf,
				Utility:  floats[op%len(floats)],
			})
		}
		wg.Wait()
		checkLogMatches(t, &l, ref)
		for _, v := range views {
			for i, got := range v.seen {
				if want := roundBits(ref[i]); got != want {
					t.Fatalf("a header copy of %d rounds read round %d concurrently as\n%s\nwant\n%s", v.l.len(), i, got, want)
				}
			}
			checkLogMatches(t, &v.l, ref[:v.l.len()])
		}
	})
}

// checkChunks checks the tables' allocation: exactly the chunks their
// values need, so each leaves less than one chunk allocated but unused.
func checkChunks(t *testing.T, l *roundLog) {
	t.Helper()
	for _, c := range []struct {
		name          string
		chunks, count int
	}{
		{"entry", len(l.entries.chunks), l.entries.n},
		{"identity", len(l.agents.chunks), l.agents.n},
		{"response", len(l.resps.chunks), l.resps.n},
	} {
		if unused := c.chunks*tableChunk - c.count; unused < 0 || unused >= tableChunk {
			t.Fatalf("%d chunks of %d %s values hold %d values", c.chunks, tableChunk, c.name, c.count)
		}
	}
}

// TestRoundLogChunkBoundary adds rounds whose new entries, identities and
// responses straddle chunk boundaries: a first round of 1000 agents (or
// exactly one chunk's worth), then rounds in which a quarter of the agents
// change to an outcome and a response they never had while 200 join and
// 200 leave, so each round's values run on into the next chunk of every
// table. Every round must rebuild bit for bit and in its wire form byte
// for byte, and after every add each table must leave less than one chunk
// unused.
func TestRoundLogChunkBoundary(t *testing.T) {
	for _, n := range []int{1000, tableChunk} {
		rng := rand.New(rand.NewSource(int64(n)))
		agents := make([]engine.AgentOutcome, n)
		for i := range agents {
			agents[i] = engine.AgentOutcome{AgentID: fmt.Sprintf("a%05d", 2*i), Size: 1, Weight: 0.5}
		}
		var l roundLog
		var ref []engine.Round
		var buf []engine.AgentOutcome
		var straddled [3]int // entries, identities, responses
		fresh := 0.0
		for r := 0; r < 16; r++ {
			if r > 0 {
				for _, i := range rng.Perm(len(agents))[:len(agents)/4] {
					agents[i].Weight += 1
					fresh++
					agents[i].Compensation = fresh
				}
				for k := 0; k < 200; k++ {
					j := rng.Intn(len(agents))
					agents = slices.Delete(agents, j, j+1)
				}
				for k := 0; k < 200; k++ {
					id := fmt.Sprintf("a%05d", 2*rng.Intn(8*n)+1)
					j := sort.Search(len(agents), func(j int) bool { return agents[j].AgentID >= id })
					if j == len(agents) || agents[j].AgentID != id {
						agents = slices.Insert(agents, j, engine.AgentOutcome{AgentID: id, Size: 2, Weight: 0.8})
					}
				}
			}
			before := [3]int{l.entries.n, l.agents.n, l.resps.n}
			buf = append(buf[:0], agents...)
			ref = addScribbled(&l, ref, engine.Round{Index: r, Outcomes: buf, Utility: float64(r)})
			checkChunks(t, &l)
			for k, after := range [3]int{l.entries.n, l.agents.n, l.resps.n} {
				if before[k]>>chunkShift != (after-1)>>chunkShift {
					straddled[k]++
				}
			}
		}
		checkLogMatches(t, &l, ref)
		for k, name := range []string{"entries", "identities", "responses"} {
			if straddled[k] < 2 {
				t.Errorf("n=%d: %d rounds' %s straddled a chunk boundary, want >= 2", n, straddled[k], name)
			}
		}
	}
}

// TestRoundLogInternDepth pins the interning walk's depth: an agent
// cycling through internDepth states gets one table entry per state
// however long it cycles, while a cycle one state longer than the walk
// reaches appends an entry every round.
func TestRoundLogInternDepth(t *testing.T) {
	for _, cycle := range []int{2, internDepth, internDepth + 1} {
		var l roundLog
		var ref []engine.Round
		const rounds = 5 * (internDepth + 1)
		for r := 0; r < rounds; r++ {
			ref = addScribbled(&l, ref, engine.Round{Index: r, Outcomes: []engine.AgentOutcome{
				{AgentID: "a", Weight: float64(r % cycle)},
				{AgentID: "b", Weight: 1},
			}})
		}
		checkLogMatches(t, &l, ref)
		want := cycle + 1
		if cycle > internDepth {
			want = rounds + 1
		}
		if l.entries.n != want {
			t.Errorf("a %d-state cycle over %d rounds: %d table entries, want %d", cycle, rounds, l.entries.n, want)
		}
	}
}

// TestRoundLogAntiphaseInterning serves a warm archetype session whose
// paired agents swap weights in antiphase: every round a random tenth of
// the pairs toggle, so each agent moves back and forth between two
// outcomes. Interning must hold the table to at most two entries per
// agent over 200 rounds, where one entry per change would hold ~4,000.
func TestRoundLogAntiphaseInterning(t *testing.T) {
	const agents, rounds = 400, 200
	rng := rand.New(rand.NewSource(2))
	sess, info := runArchetypeSession(t, agents, rounds, func(_ int, specs []AgentSpec) DriftRequest {
		drift := DriftRequest{Weights: map[string]float64{}}
		for _, p := range rng.Perm(agents / 2)[:agents/20] {
			a, b := &specs[2*p], &specs[2*p+1]
			a.Weight, b.Weight = b.Weight, a.Weight
			drift.Weights[a.ID], drift.Weights[b.ID] = a.Weight, b.Weight
		}
		return drift
	})
	logRetention(t, sess, info, agents*rounds)
	sess.ledgerMu.RLock()
	n := sess.ledger.entries.n
	sess.ledgerMu.RUnlock()
	if n > 2*agents {
		t.Errorf("the table holds %d entries for %d antiphase agents, want <= %d", n, agents, 2*agents)
	}
}

// TestRoundsListingDoesNotStallWriter holds a GET …/rounds listing after
// it has built its first round and requires a round advance to complete
// meanwhile: the listing reads a header copy, not the locked log. The
// held listing must still return the ledger as it was when it began.
func TestRoundsListingDoesNotStallWriter(t *testing.T) {
	e := newTestServer(t, Config{})
	id := e.createSession(t)
	advanceRounds(t, e, id, 3)
	before := ledgerBytes(t, e, id)
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	e.srv.mu.Lock()
	e.srv.sessions[id].listHook = func(int) {
		once.Do(func() {
			close(held)
			<-release
		})
	}
	e.srv.mu.Unlock()
	listed := make(chan []byte, 1)
	go func() {
		resp, err := e.ts.Client().Get(e.ts.URL + "/v1/sessions/" + id + "/rounds")
		if err != nil {
			listed <- nil
			return
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		listed <- raw
	}()
	<-held
	advanced := make(chan int, 1)
	go func() {
		resp, err := e.ts.Client().Post(e.ts.URL+"/v1/sessions/"+id+"/rounds", "application/json", nil)
		if err != nil {
			advanced <- 0
			return
		}
		resp.Body.Close()
		advanced <- resp.StatusCode
	}()
	select {
	case code := <-advanced:
		close(release)
		if code != http.StatusOK {
			t.Fatalf("round advance during a held listing: status %d", code)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("a round advance stalled behind a held GET …/rounds listing")
	}
	if got := <-listed; string(got) != string(before) {
		t.Errorf("the held listing returned\n%s\nwant the ledger as it began\n%s", got, before)
	}
	var rows []json.RawMessage
	if err := json.Unmarshal(ledgerBytes(t, e, id), &rows); err != nil || len(rows) != 4 {
		t.Fatalf("ledger after the advance: %d rounds, %v; want 4", len(rows), err)
	}
}

// TestRoundLogSignedZeroAndNaN pins the bitwise reuse rule: −0 after +0
// is a new outcome (an == comparison would wrongly reuse +0 and the
// audit form would print 0 for -0), and an unchanged NaN reuses its
// entry (an == comparison would append it every round).
func TestRoundLogSignedZeroAndNaN(t *testing.T) {
	oc := func(effort, comp float64) []engine.AgentOutcome {
		return []engine.AgentOutcome{
			{AgentID: "a", Effort: effort, Compensation: comp, Weight: 1},
			{AgentID: "b", Effort: 1, Weight: 1},
		}
	}
	negZero := math.Copysign(0, -1)
	ref := []engine.Round{
		{Index: 0, Outcomes: oc(0, 0)},
		{Index: 1, Outcomes: oc(negZero, 0)},
		{Index: 2, Outcomes: oc(negZero, negZero)},
		{Index: 3, Outcomes: oc(math.NaN(), negZero)},
		{Index: 4, Outcomes: oc(math.NaN(), negZero)},
	}
	// b never changes (1 entry); a changes in rounds 1, 2 and 3 (one new
	// entry each) and repeats its NaN outcome in round 4 (none).
	wantTable := []int{2, 3, 4, 5, 5}
	var l roundLog
	for i, r := range ref {
		l.add(r)
		if l.entries.n != wantTable[i] {
			t.Errorf("after round %d the table holds %d outcomes, want %d", i, l.entries.n, wantTable[i])
		}
	}
	checkLogMatches(t, &l, ref)
}

// TestRoundLogTotalMatchesTotalUtility pins the running total against a
// rescan with engine.TotalUtility, bit for bit, on a ledger holding NaN
// and infinite rounds.
func TestRoundLogTotalMatchesTotalUtility(t *testing.T) {
	utils := []float64{0.1, math.NaN(), 0.2, math.Inf(-1), 1e-17, 0.3, math.Inf(1), -0.7}
	var l roundLog
	var ref []engine.Round
	for i, u := range utils {
		r := engine.Round{Index: i, Utility: u}
		l.add(r)
		ref = append(ref, r)
		if g, w := math.Float64bits(l.total), math.Float64bits(engine.TotalUtility(ref)); g != w {
			t.Fatalf("after round %d: total %v != TotalUtility %v", i, l.total, engine.TotalUtility(ref))
		}
	}
}

// TestSameOutcomeCoversEveryField changes each field of AgentOutcome in
// turn and requires sameOutcome to notice and a table entry to store it,
// so a field added to the engine's outcome cannot be silently dropped by
// reuse.
func TestSameOutcomeCoversEveryField(t *testing.T) {
	base := engine.AgentOutcome{AgentID: "a", Class: 1, Size: 2, Effort: 0.5, Feedback: 0.25, Compensation: 0.75, Weight: 1}
	var l roundLog
	entry := func(oc *engine.AgentOutcome) uint32 {
		return l.push(l.mint(oc), l.response(oc), oc.Weight, noRef)
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		mod := base
		f := reflect.ValueOf(&mod).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Float64:
			f.SetFloat(math.Nextafter(f.Float(), 2))
		default:
			t.Fatalf("field %s has kind %s: teach sameOutcome and this test about it", typ.Field(i).Name, f.Kind())
		}
		if ref := entry(&base); l.sameOutcome(ref, l.entries.at(ref).agent, &mod) {
			t.Errorf("sameOutcome ignores field %s", typ.Field(i).Name)
		}
		if got := l.outcome(entry(&mod)); got != mod {
			t.Errorf("a table entry drops field %s: stored %+v, got back %+v", typ.Field(i).Name, mod, got)
		}
	}
	if ref := entry(&base); !l.sameOutcome(ref, l.entries.at(ref).agent, &base) {
		t.Error("sameOutcome(x, x) = false")
	}
}

// TestRoundLogLayout pins the table layout: an entry is 24 B — two
// 4-byte references, the chain link and the weight — and every table's
// chunk is a whole number of the Go runtime's 8 KiB pages, so no chunk
// leaves part of a page unused.
func TestRoundLogLayout(t *testing.T) {
	if got := unsafe.Sizeof(logEntry{}); got != 24 {
		t.Errorf("a table entry takes %d B, want 24", got)
	}
	const page = 8 << 10
	for name, size := range map[string]uintptr{
		"entry":    unsafe.Sizeof([tableChunk]logEntry{}),
		"identity": unsafe.Sizeof([tableChunk]logIdentity{}),
		"response": unsafe.Sizeof([tableChunk]logResponse{}),
	} {
		if size%page != 0 {
			t.Errorf("a chunk of %d %s values takes %d B, not a whole number of %d B pages", tableChunk, name, size, page)
		}
	}
}

// archetypeAgents builds n agents from the three test archetypes, in
// pairs holding the archetype's weight w and 0.8·w.
func archetypeAgents(n int) []AgentSpec {
	arch := testAgents()[1:] // h2, m1, c1: one per class
	out := make([]AgentSpec, n)
	for i := range out {
		a := arch[(i/2)%len(arch)]
		a.ID = fmt.Sprintf("agent-%05d", i)
		if i%2 == 1 {
			a.Weight *= 0.8
		}
		out[i] = a
	}
	return out
}

// runArchetypeSession serves a warm archetype session of the given size
// for the given rounds, posting drift(r, specs) before each round, and
// returns the session and its info.
func runArchetypeSession(t *testing.T, agents, rounds int, drift func(r int, specs []AgentSpec) DriftRequest) (*session, SessionInfo) {
	t.Helper()
	e := newTestServer(t, Config{})
	specs := archetypeAgents(agents)
	create := CreateSessionRequest{Agents: specs, M: 10, Delta: 0.2, Mu: 1}
	var cr CreateSessionResponse
	if code := e.do(t, "POST", "/v1/sessions", &create, &cr); code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	for r := 0; r < rounds; r++ {
		d := drift(r, specs)
		if code := e.do(t, "POST", "/v1/sessions/"+cr.ID+"/drift", &d, nil); code != http.StatusOK {
			t.Fatalf("drift %d: status %d", r, code)
		}
		if code := e.do(t, "POST", "/v1/sessions/"+cr.ID+"/rounds", nil, nil); code != http.StatusOK {
			t.Fatalf("round %d: status %d", r, code)
		}
	}
	var info SessionInfo
	if code := e.do(t, "GET", "/v1/sessions/"+cr.ID, nil, &info); code != http.StatusOK {
		t.Fatalf("session info: status %d", code)
	}
	e.srv.mu.Lock()
	sess := e.srv.sessions[cr.ID]
	e.srv.mu.Unlock()
	return sess, info
}

// logRetention recounts what a session's log retains and checks it
// against the ledger_bytes its info reported. It returns the bytes per
// agent-round of the whole log and of its references and edits alone.
func logRetention(t *testing.T, sess *session, info SessionInfo, agentRounds int) (all, refs float64) {
	t.Helper()
	sess.ledgerMu.RLock()
	defer sess.ledgerMu.RUnlock()
	l := &sess.ledger
	n := 0
	for i := range l.rows {
		n += len(l.round(i).Outcomes)
	}
	if n != agentRounds {
		t.Fatalf("log holds %d agent-rounds, want %d", n, agentRounds)
	}
	retained := recountBytes(l)
	if info.LedgerBytes != retained || l.bytes != retained {
		t.Fatalf("ledger_bytes %d (running %d) != recount %d", info.LedgerBytes, l.bytes, retained)
	}
	table := recountBytes(&roundLog{entries: l.entries, agents: l.agents, resps: l.resps})
	full, delta := rowForms(l)
	t.Logf("log retains %d B (%.2f per agent-round): %d full and %d delta rows, %d outcomes in the table",
		retained, float64(retained)/float64(n), full, delta, l.entries.n)
	return float64(retained) / float64(n), float64(retained-table) / float64(n)
}

// TestRoundLogRetention is the memory guard for the served ledger. A warm
// 2,000-agent archetype session toggling 1% of its weights per round
// must retain at most 0.9 bytes per agent-round — a full row of 4-byte
// references now and then, 8 bytes per edit and, as interning gives a
// pair swapping weights back and forth, at most two outcomes per agent —
// where a reference per agent-round would retain 4 and a copied
// []AgentOutcome per round 72. When every weight moves every
// round, references and edits together must still stay within the 4
// bytes per agent-round of full rows.
func TestRoundLogRetention(t *testing.T) {
	const agents, rounds = 2000, 200
	rng := rand.New(rand.NewSource(1))
	sess, info := runArchetypeSession(t, agents, rounds, func(_ int, specs []AgentSpec) DriftRequest {
		drift := DriftRequest{Weights: map[string]float64{}}
		for _, p := range rng.Perm(agents / 2)[:agents/200] {
			a, b := &specs[2*p], &specs[2*p+1]
			a.Weight, b.Weight = b.Weight, a.Weight
			drift.Weights[a.ID], drift.Weights[b.ID] = a.Weight, b.Weight
		}
		return drift
	})
	if per, _ := logRetention(t, sess, info, agents*rounds); per > 0.9 {
		t.Errorf("low-change log retains %.2f B per agent-round, want <= 0.9", per)
	}

	const allRounds = 20
	sess, info = runArchetypeSession(t, agents, allRounds, func(r int, specs []AgentSpec) DriftRequest {
		drift := DriftRequest{Weights: map[string]float64{}}
		for i := range specs {
			specs[i].Weight *= 1 + 0.01*float64(1-2*(r%2))
			drift.Weights[specs[i].ID] = specs[i].Weight
		}
		return drift
	})
	if _, refs := logRetention(t, sess, info, agents*allRounds); refs > 4 {
		t.Errorf("all-change log holds %.2f B of references and edits per agent-round, want <= 4", refs)
	}
}

// TestSnapshotBodyMatchesPlainLedger pins the snapshot bytes: the body a
// session journals equals the canonical encoding of the same snapshot
// whose rounds come from a plain retained []engine.Round — a bare engine
// stepped through the same commands — so the compact log changes nothing
// on disk.
func TestSnapshotBodyMatchesPlainLedger(t *testing.T) {
	dir := t.TempDir()
	e := newJournaledServer(t, dir, Config{})
	id := e.createSession(t)
	advanceRounds(t, e, id, 3)
	drift := DriftRequest{Weights: map[string]float64{"h1": 1.4}}
	if code := e.do(t, "POST", "/v1/sessions/"+id+"/drift", &drift, nil); code != http.StatusOK {
		t.Fatalf("drift: status %d", code)
	}
	advanceRounds(t, e, id, 3)
	if code := e.do(t, "POST", "/v1/sessions/"+id+"/snapshot", nil, nil); code != http.StatusOK {
		t.Fatalf("snapshot: status %d", code)
	}

	st, err := journal.Open(crashImage(t, dir), journal.Options{Mode: journal.ModeStrict})
	if err != nil {
		t.Fatal(err)
	}
	recs, failed, err := st.Recover()
	if err != nil || len(failed) != 0 || len(recs) != 1 || recs[0].Snapshot == nil {
		t.Fatalf("recover: %v, %d failed, %d sessions", err, len(failed), len(recs))
	}
	body := recs[0].Snapshot

	req := testCreateReq()
	pop, err := buildExplicit(&req)
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := engine.RunLedger(context.Background(), pop, engine.Config{
		Policy: &platform.DynamicPolicy{},
		Rounds: 6,
		Cache:  engine.NewCache(),
		Memo:   engine.NewRespondMemo(),
		Drift: func(r int, p *engine.Population) {
			if r == 3 {
				p.Weights["h1"] = 1.4
				p.Touch("h1")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var snap sessionSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Rounds = make([]RoundJSON, len(ledger))
	for i, r := range ledger {
		snap.Rounds[i] = roundJSON(r, true)
	}
	want, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(want) {
		t.Errorf("snapshot body differs from a plain ledger's:\n got %s\nwant %s", body, want)
	}
}

// TestRoundLogConcurrentReaders serves rounds and drifts while readers
// poll the audit and info endpoints and auto-snapshots serialize the log
// in the background (run it under -race): every ledger a reader sees
// must be a byte-identical prefix of the final one. The session's 300
// agents all change weight every fifth round, so the table crosses a
// chunk boundary mid-run, and the writer waits after each round until a
// reader has listed it: views are taken on both sides of the boundary.
func TestRoundLogConcurrentReaders(t *testing.T) {
	const agents = 300
	e := newJournaledServer(t, t.TempDir(), Config{SnapshotEvery: 2})
	specs := archetypeAgents(agents)
	var cr CreateSessionResponse
	if code := e.do(t, "POST", "/v1/sessions", &CreateSessionRequest{Agents: specs, M: 10, Delta: 0.2, Mu: 1}, &cr); code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	id := cr.ID
	e.srv.mu.Lock()
	sess := e.srv.sessions[id]
	e.srv.mu.Unlock()
	done := make(chan struct{})
	// seen holds each distinct form of each round any reader listed, and
	// listed the longest listing's length.
	seen := map[int]map[string]bool{}
	listed := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, path := range []string{"/rounds", ""} {
					resp, err := e.ts.Client().Get(e.ts.URL + "/v1/sessions/" + id + path)
					if err != nil {
						t.Error(err)
						return
					}
					raw, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s: status %d, %v", path, resp.StatusCode, err)
						return
					}
					if path == "/rounds" {
						var rows []json.RawMessage
						if err := json.Unmarshal(raw, &rows); err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						for i, row := range rows {
							if seen[i] == nil {
								seen[i] = map[string]bool{}
							}
							seen[i][string(row)] = true
						}
						listed = max(listed, len(rows))
						mu.Unlock()
					}
				}
			}
		}()
	}
	crossed := -1 // the first round after which the table spans two chunks
	for i := 0; i < 20; i++ {
		if i%5 == 4 {
			drift := DriftRequest{Weights: map[string]float64{}}
			for j := range specs {
				specs[j].Weight *= 1.1
				drift.Weights[specs[j].ID] = specs[j].Weight
			}
			if code := e.do(t, "POST", "/v1/sessions/"+id+"/drift", &drift, nil); code != http.StatusOK {
				t.Fatalf("drift %d: status %d", i, code)
			}
		}
		advanceRounds(t, e, id, 1)
		sess.ledgerMu.RLock()
		if crossed < 0 && len(sess.ledger.entries.chunks) > 1 {
			crossed = i
		}
		sess.ledgerMu.RUnlock()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			mu.Lock()
			n := listed
			mu.Unlock()
			if n > i {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("no reader listed round %d", i)
			}
		}
	}
	close(done)
	wg.Wait()
	if crossed < 1 || crossed == 19 {
		t.Fatalf("the table first spanned two chunks after round %d, want a boundary crossed mid-run", crossed)
	}
	// Let the last background snapshot commit before the journal
	// directory is removed.
	for deadline := time.Now().Add(5 * time.Second); sess.snapBusy.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("background snapshot never finished")
		}
	}
	var final []json.RawMessage
	if err := json.Unmarshal(ledgerBytes(t, e, id), &final); err != nil {
		t.Fatal(err)
	}
	if len(final) != 20 {
		t.Fatalf("final ledger has %d rounds, want 20", len(final))
	}
	for i, forms := range seen {
		for row := range forms {
			if row != string(final[i]) {
				t.Fatalf("a reader saw round %d as %s, final ledger has %s", i, row, final[i])
			}
		}
	}
}

// BenchmarkRoundLogAdd times roundLog.add on the rounds of a 12k-agent
// session and reports ns/add and the bytes the log retains per round.
// first-round adds the session's first round, 12k joiners, to an empty
// log: what a created session's first round pays for its table. Each
// other arm changes 1% of the agents a round: antiphase-1pct swaps the
// weights of 60 random pairs, so every change returns to an outcome the
// agent had (interning's best case); fresh-1pct gives 120 random agents
// a weight never seen before, so every change walks an agent's chain and
// appends (interning's worst case); churn-0.5pct retires 60 random agents
// and admits 60 new ones, so every row is structural. The rounds are
// generated with the timer stopped, into reused buffers, so that their
// garbage does not set the collector's pace during the timed adds; only
// the joiners' IDs are allocated, because the log keeps them.
func BenchmarkRoundLogAdd(b *testing.B) {
	const n = 12000
	// armState is an arm's round generator: its rng, an index buffer that
	// sample shuffles in place, and the spare outcome buffer churn merges
	// into (add keeps no reference to a round's Outcomes).
	type armState struct {
		rng     *rand.Rand
		idx     []int
		joiners []engine.AgentOutcome
		spare   []engine.AgentOutcome
	}
	// sample returns k distinct indices below m by a partial Fisher–Yates
	// shuffle of the state's index buffer, which holds a permutation of
	// 0..m-1 from one call to the next.
	sample := func(st *armState, m, k int) []int {
		if len(st.idx) != m {
			st.idx = make([]int, m)
			for i := range st.idx {
				st.idx[i] = i
			}
		}
		for j := 0; j < k; j++ {
			r := j + st.rng.Intn(m-j)
			st.idx[j], st.idx[r] = st.idx[r], st.idx[j]
		}
		return st.idx[:k]
	}
	arms := []struct {
		name string
		step func(r int, agents []engine.AgentOutcome, st *armState) []engine.AgentOutcome
	}{
		{"antiphase-1pct", func(_ int, agents []engine.AgentOutcome, st *armState) []engine.AgentOutcome {
			for _, p := range sample(st, len(agents)/2, len(agents)/200) {
				agents[2*p].Weight, agents[2*p+1].Weight = agents[2*p+1].Weight, agents[2*p].Weight
			}
			return agents
		}},
		{"fresh-1pct", func(_ int, agents []engine.AgentOutcome, st *armState) []engine.AgentOutcome {
			for _, i := range sample(st, len(agents), len(agents)/100) {
				agents[i].Weight = st.rng.Float64()
			}
			return agents
		}},
		{"churn-0.5pct", func(r int, agents []engine.AgentOutcome, st *armState) []engine.AgentOutcome {
			k := len(agents) / 200
			joiners := st.joiners[:0]
			for j := 0; j < k; j++ {
				oc := agents[st.rng.Intn(len(agents))]
				oc.AgentID = fmt.Sprintf("%s.%06d.%d", oc.AgentID, r, j)
				joiners = append(joiners, oc)
			}
			st.joiners = joiners
			slices.SortFunc(joiners, func(a, b engine.AgentOutcome) int { return strings.Compare(a.AgentID, b.AgentID) })
			for _, i := range sample(st, len(agents), k) {
				agents[i].AgentID = ""
			}
			kept := slices.DeleteFunc(agents, func(oc engine.AgentOutcome) bool { return oc.AgentID == "" })
			merged := st.spare[:0]
			j := 0
			for _, oc := range kept {
				for ; j < k && joiners[j].AgentID < oc.AgentID; j++ {
					merged = append(merged, joiners[j])
				}
				merged = append(merged, oc)
			}
			st.spare = agents[:0]
			return append(merged, joiners[j:]...)
		}},
	}
	outcomes := func() []engine.AgentOutcome {
		agents := make([]engine.AgentOutcome, n)
		for i := range agents {
			agents[i] = engine.AgentOutcome{
				AgentID:      fmt.Sprintf("agent-%06d", i),
				Class:        worker.Class(i % 3),
				Size:         1,
				Effort:       0.5,
				Feedback:     0.75,
				Compensation: 0.25,
				Weight:       1 + 0.25*float64(i%2),
			}
		}
		return agents
	}
	b.Run("first-round", func(b *testing.B) {
		agents := outcomes()
		var l roundLog
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l = roundLog{}
			l.add(engine.Round{Outcomes: agents})
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/add")
		b.ReportMetric(float64(l.bytes), "B/round")
	})
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			agents := outcomes()
			st := &armState{rng: rand.New(rand.NewSource(1)), spare: make([]engine.AgentOutcome, 0, n)}
			var l roundLog
			l.add(engine.Round{Outcomes: agents})
			start := l.bytes
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				agents = arm.step(i, agents, st)
				b.StartTimer()
				l.add(engine.Round{Index: i + 1, Outcomes: agents})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/add")
			b.ReportMetric(float64(l.bytes-start)/float64(b.N), "B/round")
		})
	}
}
