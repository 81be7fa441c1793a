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
	"sort"
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

// checkLogMatches compares every round of the log with a plain retained
// ledger: bit for bit, and through the audit wire form byte for byte
// (json.Marshal rejects NaN, so a NaN round must fail on both sides).
func checkLogMatches(t *testing.T, l *roundLog, ref []engine.Round) {
	t.Helper()
	if l.len() != len(ref) {
		t.Fatalf("log has %d rounds, want %d", l.len(), len(ref))
	}
	for i := range ref {
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
			round := engine.Round{
				Index:    r,
				Outcomes: buf,
				Benefit:  rng.Float64(),
				Cost:     rng.Float64(),
				Utility:  floats[rng.Intn(len(floats))] + rng.Float64(),
			}
			l.add(round)
			cp := round
			cp.Outcomes = append([]engine.AgentOutcome(nil), buf...)
			ref = append(ref, cp)
			for i := range buf {
				buf[i] = engine.AgentOutcome{AgentID: "scribbled", Effort: -1}
			}
		}
		checkLogMatches(t, &l, ref)
		if len(l.table) >= 60*len(state) {
			t.Errorf("seed %d: table holds %d outcomes for 60 mostly repeating rounds", seed, len(l.table))
		}
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
	var l roundLog
	for _, r := range ref {
		l.add(r)
	}
	checkLogMatches(t, &l, ref)
	// b never changes (1 entry); a changes in rounds 1, 2 and 3 (4 entries).
	if len(l.table) != 5 {
		t.Errorf("table holds %d outcomes, want 5", len(l.table))
	}
	if l.rows[4].refs[0] != l.rows[3].refs[0] {
		t.Errorf("an unchanged NaN outcome was not reused")
	}
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
// turn and requires sameOutcome to notice, so a field added to the
// engine's outcome cannot be silently dropped by reuse.
func TestSameOutcomeCoversEveryField(t *testing.T) {
	base := engine.AgentOutcome{AgentID: "a", Class: 1, Size: 2, Effort: 0.5, Feedback: 0.25, Compensation: 0.75, Weight: 1}
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
		if sameOutcome(&base, &mod) {
			t.Errorf("sameOutcome ignores field %s", typ.Field(i).Name)
		}
	}
	if !sameOutcome(&base, &base) {
		t.Error("sameOutcome(x, x) = false")
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

// TestRoundLogRetention is the memory guard for the served ledger: a
// warm 2,000-agent archetype session toggling 1% of its weights per round
// must retain at most 8 bytes per agent-round — the 4-byte reference plus
// the few outcomes that changed — where a copied []AgentOutcome per round
// would retain 72.
func TestRoundLogRetention(t *testing.T) {
	const agents, rounds = 2000, 200
	e := newTestServer(t, Config{})
	specs := archetypeAgents(agents)
	create := CreateSessionRequest{Agents: specs, M: 10, Delta: 0.2, Mu: 1}
	var cr CreateSessionResponse
	if code := e.do(t, "POST", "/v1/sessions", &create, &cr); code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	rng := rand.New(rand.NewSource(1))
	for r := 0; r < rounds; r++ {
		drift := DriftRequest{Weights: map[string]float64{}}
		for _, p := range rng.Perm(agents / 2)[:agents/200] {
			a, b := &specs[2*p], &specs[2*p+1]
			a.Weight, b.Weight = b.Weight, a.Weight
			drift.Weights[a.ID], drift.Weights[b.ID] = a.Weight, b.Weight
		}
		if code := e.do(t, "POST", "/v1/sessions/"+cr.ID+"/drift", &drift, nil); code != http.StatusOK {
			t.Fatalf("drift %d: status %d", r, code)
		}
		if code := e.do(t, "POST", "/v1/sessions/"+cr.ID+"/rounds", nil, nil); code != http.StatusOK {
			t.Fatalf("round %d: status %d", r, code)
		}
	}
	e.srv.mu.Lock()
	sess := e.srv.sessions[cr.ID]
	e.srv.mu.Unlock()
	sess.ledgerMu.RLock()
	defer sess.ledgerMu.RUnlock()
	l := &sess.ledger
	refs := 0
	for _, row := range l.rows {
		refs += len(row.refs)
	}
	if refs != agents*rounds {
		t.Fatalf("log holds %d agent-rounds, want %d", refs, agents*rounds)
	}
	retained := len(l.table)*int(unsafe.Sizeof(engine.AgentOutcome{})) + 4*refs
	per := float64(retained) / float64(refs)
	t.Logf("log retains %.2f B per agent-round (%d outcomes in the table)", per, len(l.table))
	if per > 8 {
		t.Errorf("log retains %.2f B per agent-round, want <= 8", per)
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
	pop, err := buildPopulation(&req)
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
// must be a byte-identical prefix of the final one.
func TestRoundLogConcurrentReaders(t *testing.T) {
	e := newJournaledServer(t, t.TempDir(), Config{SnapshotEvery: 2})
	id := e.createSession(t)
	done := make(chan struct{})
	var seen [][]json.RawMessage
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
						seen = append(seen, rows)
						mu.Unlock()
					}
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if i%5 == 4 {
			drift := DriftRequest{Weights: map[string]float64{"h1": 1 + float64(i)/10}}
			if code := e.do(t, "POST", "/v1/sessions/"+id+"/drift", &drift, nil); code != http.StatusOK {
				t.Fatalf("drift %d: status %d", i, code)
			}
		}
		advanceRounds(t, e, id, 1)
	}
	close(done)
	wg.Wait()
	// Let the last background snapshot commit before the journal
	// directory is removed.
	e.srv.mu.Lock()
	sess := e.srv.sessions[id]
	e.srv.mu.Unlock()
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
	for _, rows := range seen {
		for i, row := range rows {
			if string(row) != string(final[i]) {
				t.Fatalf("a reader saw round %d as %s, final ledger has %s", i, row, final[i])
			}
		}
	}
}
