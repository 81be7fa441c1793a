package main

import (
	"bytes"
	"math"
	"testing"

	"dyncontract/internal/server"
)

// testBase is a small fixed roster for the generators.
func testBase(n int) []server.AgentSpec {
	base := make([]server.AgentSpec, n)
	for i := range base {
		base[i] = server.AgentSpec{
			ID:     string(rune('a'+i%26)) + string(rune('a'+i/26)),
			Class:  "honest",
			Psi:    server.PsiSpec{R2: -0.01, R1: 1},
			Beta:   1,
			Weight: 0.5 + float64(i)/float64(n),
		}
	}
	return base
}

// bodies concatenates every request body of n steps.
func bodies(next func() step, n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		st := next()
		for _, d := range st.drifts {
			b.Write(d.body)
		}
		b.Write(st.design)
	}
	return b.Bytes()
}

func TestGeneratorsDeterministic(t *testing.T) {
	gens := map[string]func(seed int64) func() step{
		"paper":  func(seed int64) func() step { return newPaperGen(seed, testBase(400)).next },
		"script": func(seed int64) func() step { return newScriptGen(seed, testBase(400)).next },
		"archetype": func(seed int64) func() step {
			g, _, _, _, err := newArchetypeGen(seed, 600)
			if err != nil {
				t.Fatal(err)
			}
			return g.next
		},
	}
	for name, gen := range gens {
		a, b, c := bodies(gen(7), 30), bodies(gen(7), 30), bodies(gen(8), 30)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 produced different request bodies on two runs", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 produced identical request bodies", name)
		}
	}
}

func TestPaperGenChurn(t *testing.T) {
	g := newPaperGen(1, testBase(400))
	var joined []string
	for i := 0; i < 20; i++ {
		st := g.next()
		if len(st.drifts) != 1 {
			t.Fatalf("step %d: %d drift requests, want 1", i, len(st.drifts))
		}
		d := st.drifts[0].req
		if len(d.Weights) != 4 {
			t.Fatalf("step %d: %d weights re-estimated, want 1%% of 400", i, len(d.Weights))
		}
		if i%10 != 9 {
			if len(d.Add)+len(d.Remove) != 0 {
				t.Fatalf("step %d: structural drift off the 10-step period", i)
			}
			continue
		}
		if len(d.Add) != 2 {
			t.Fatalf("step %d: %d joiners, want 0.5%% of 400", i, len(d.Add))
		}
		if !equalStrings(d.Remove, joined) {
			t.Fatalf("step %d: removed %v, want the previous joiners %v", i, d.Remove, joined)
		}
		joined = joined[:0]
		for _, a := range d.Add {
			joined = append(joined, a.ID)
		}
	}
}

func TestScriptGenSplitsDrift(t *testing.T) {
	g := newScriptGen(2, testBase(400))
	for i := 0; i < 10; i++ {
		st := g.next()
		if len(st.drifts) != 2 {
			t.Fatalf("step %d: %d drift requests, want weights then values", i, len(st.drifts))
		}
		w, v := st.drifts[0].req, st.drifts[1].req
		if len(w.Weights) != 4 || len(w.Beta)+len(w.Add)+len(w.Remove) != 0 {
			t.Fatalf("step %d: first drift %+v, want weights only", i, w)
		}
		if len(v.Weights) != 0 || len(v.Beta) != 2 {
			t.Fatalf("step %d: second drift has %d weights and %d betas, want 0 and 2", i, len(v.Weights), len(v.Beta))
		}
		if structural := len(v.Add) > 0; structural != (i%5 == 4) {
			t.Fatalf("step %d: joins %d, want joins every 5th step", i, len(v.Add))
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestArchetypeGenKeepsFingerprints(t *testing.T) {
	g, _, _, _, err := newArchetypeGen(3, 600)
	if err != nil {
		t.Fatal(err)
	}
	count := func() map[[2]float64]int {
		c := make(map[[2]float64]int)
		for _, a := range g.agents {
			c[[2]float64{a.Beta, a.Weight}]++
		}
		return c
	}
	before := count()
	for i := 0; i < 50; i++ {
		if st := g.next(); len(st.drifts[0].req.Weights) != 6 {
			t.Fatalf("step %d toggled %d weights, want 1%% of 600", i, len(st.drifts[0].req.Weights))
		}
	}
	after := count()
	if len(before) != 6 || len(after) != len(before) {
		t.Fatalf("archetype×weight classes: %d before, %d after; want 6", len(before), len(after))
	}
	for k, n := range before {
		if after[k] != n {
			t.Errorf("class %v: %d agents before, %d after antiphase toggles", k, n, after[k])
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, reversed
	}
	v, pct, ok := tail(xs)
	if !ok || v != 990 || pct != 99 {
		t.Fatalf("tail of 1..1000 = %v at p%v (ok %v), want 990 at p99", v, pct, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}
	if v, pct, _ = tail(xs[:250]); v != 990 || pct != 96 {
		t.Fatalf("tail of 250 samples = %v at p%v, want the 240th at p96", v, pct)
	}
	if _, _, ok := tail(xs[:tailBeyond]); ok {
		t.Fatalf("tail of %d samples reported ok; no rank leaves %d beyond", tailBeyond, tailBeyond)
	}
	if l := summarize(xs[:11]); l.n != 11 || l.tail != 990 {
		t.Fatalf("summary of 11 samples: n %d tail %v, want n 11 and the lowest sample", l.n, l.tail)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []interval{{10, 40}, {30, 60}, {35, 45}}, 50},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		{"clipped", []interval{{-10, 10}, {90, 120}}, 80},
		{"outside", []interval{{100, 120}, {-5, 0}}, 100},
		{"unsorted", []interval{{60, 70}, {0, 10}, {5, 15}}, 75},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLayerTableFoldsChildren(t *testing.T) {
	r := newRecorder()
	r.spans = []span{
		{Name: "step", Trace: 1, ID: 1, Start: 0, End: 10e6},
		{Name: "server.round", Trace: 1, ID: 2, Parent: 1, Start: 1e6, End: 5e6},
		{Name: "engine.step", Trace: 1, ID: 3, Parent: 1, Start: 4e6, End: 6e6},
	}
	for _, row := range r.layerTable() {
		if row.name == "step" && row.selfP50 != 5 {
			t.Fatalf("step self time %v ms, want 10 − |[1,6]| = 5", row.selfP50)
		}
	}
}

func TestExtendsLedger(t *testing.T) {
	pre := headOf([]byte(`[{"round":0},{"round":1}]` + "\n"))
	ok := call{code: 200, body: []byte(`[{"round":0},{"round":1},{"round":2}]` + "\n")}
	if err := extendsLedger(ok, pre); err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{`[{"round":0},{"round":1}]`, `[{"round":0},{"round":9},{"round":2}]`} {
		if err := extendsLedger(call{code: 200, body: []byte(body)}, pre); err == nil {
			t.Errorf("%s accepted as extending the ledger", body)
		}
	}
}

func TestSameContract(t *testing.T) {
	st := &step{queried: server.AgentSpec{ID: "a"}, contract: []byte(`{"knots":[1,2]}`)}
	if err := sameContract([]byte(`{"agent_id":"a","contract":{"knots":[1,2]},"batch_size":1}`), st); err != nil {
		t.Fatal(err)
	}
	if err := sameContract([]byte(`{"contract":{"knots":[1,3]}}`), st); err == nil {
		t.Fatal("a different contract passed")
	}
}

func TestNetOfSteal(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	if s := stolen(cpuTimes{steal: 10, total: 100}, cpuTimes{steal: 30, total: 200}); !near(s, 0.2) {
		t.Fatalf("stolen share %v, want 0.2", s)
	}
	if s := stolen(cpuTimes{total: 100}, cpuTimes{total: 100}); s != 0 {
		t.Fatalf("stolen share over no time %v, want 0", s)
	}
	if got := netOf("round", 10, 0.2); !near(got, 8) {
		t.Errorf("round 10 ms at 20%% steal: %v, want 8", got)
	}
	// Only the part of a design query above the batch window is netted.
	if got := netOf("design", 3, 0.5); !near(got, 2.5) {
		t.Errorf("design 3 ms at 50%% steal: %v, want 2.5", got)
	}
}
