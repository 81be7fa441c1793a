package engine_test

import (
	"context"
	"strconv"
	"testing"

	"dyncontract/internal/engine"
	"dyncontract/internal/spans"
)

// attrMap flattens a span's attributes for assertion.
func attrMap(sd spans.SpanData) map[string]string {
	m := make(map[string]string, len(sd.Attrs))
	for _, a := range sd.Attrs {
		m[a.Key] = a.Value
	}
	return m
}

// TestEngineRoundSpans pins the traced round's span tree on the
// ShardPolicy route: a caller's root span gains one engine.round child per
// round, each with the five pipeline-stage children and nothing below
// them; the design stage carries the view's agents, cache hit-miss
// counts, the change report, the solver batch and the round's drift
// classification, and the respond stage the route it took and its memo
// hit-miss counts.
func TestEngineRoundSpans(t *testing.T) {
	pop := archetypePopulation(t, 24)
	rec := spans.NewRecorder(8, 4)
	tracer := spans.New(spans.Config{Sample: 1, Seed: 5, Recorder: rec})

	eng, err := engine.New(pop, engine.Config{
		Policy: &shardDesignPolicy{},
		Rounds: 2,
		Cache:  engine.NewCache(),
		Memo:   engine.NewRespondMemo(),
	})
	if err != nil {
		t.Fatal(err)
	}

	root := tracer.Root("test.run")
	ctx := spans.ContextWith(context.Background(), root)
	if err := eng.Run(ctx); err != nil {
		t.Fatal(err)
	}
	root.End()

	tr, ok := rec.Lookup(root.TraceID())
	if !ok {
		t.Fatal("trace not recorded")
	}
	rootSpan, ok := tr.Root()
	if !ok {
		t.Fatal("no root span")
	}

	byParent := make(map[spans.SpanID][]spans.SpanData)
	for _, sd := range tr.Spans {
		byParent[sd.Parent] = append(byParent[sd.Parent], sd)
	}
	rounds := byParent[rootSpan.ID]
	if len(rounds) != 2 {
		t.Fatalf("got %d engine.round spans, want 2", len(rounds))
	}
	wantStages := []string{
		"engine.stage.design", "engine.stage.contracts", "engine.stage.respond",
		"engine.stage.settle", "engine.stage.observe",
	}
	// archetypePopulation holds three design keys: the cold round builds
	// three menus in one batch, and solves three best responses; the warm
	// round validates the three menus and skips respond.
	wantDesign := []map[string]string{
		{"agents": "24", "cache.hits": "0", "cache.misses": "3", "changed": "true", "batch": "3"},
		{"agents": "24", "cache.hits": "3", "cache.misses": "0", "changed": "false", "batch": "0"},
	}
	wantRespond := []map[string]string{
		{"agents": "24", "route": "solve", "memo.hits": "0", "memo.misses": "3"},
		{"agents": "24", "route": "skip"},
	}
	for ri, round := range rounds {
		if round.Name != "engine.round" {
			t.Fatalf("round span name = %q", round.Name)
		}
		attrs := attrMap(round)
		if attrs["round"] != strconv.Itoa(ri) {
			t.Errorf("round %d: round attr = %q", ri, attrs["round"])
		}
		if attrs["agents"] != "24" {
			t.Errorf("round %d: agents attr = %q", ri, attrs["agents"])
		}
		if _, ok := attrs["shards"]; ok {
			t.Errorf("round %d: shards attr present", ri)
		}
		// Round 0 has no drift hook and no declared scope: viewKeep
		// declared, but the first round's view build escalates to
		// viewFull; round 1 is fully warm and stays viewKeep.
		wantDrift := "viewFull"
		if ri == 1 {
			wantDrift = "viewKeep"
		}
		if attrs["drift"] != wantDrift {
			t.Errorf("round %d: drift attr = %q, want %q", ri, attrs["drift"], wantDrift)
		}

		stages := byParent[round.ID]
		if len(stages) != len(wantStages) {
			t.Fatalf("round %d: got %d stage spans, want %d", ri, len(stages), len(wantStages))
		}
		stageByName := make(map[string]spans.SpanData, len(stages))
		for _, sg := range stages {
			stageByName[sg.Name] = sg
			if kids := byParent[sg.ID]; len(kids) != 0 {
				t.Errorf("round %d: stage %s has %d child spans, want 0", ri, sg.Name, len(kids))
			}
		}
		for _, name := range wantStages {
			if _, ok := stageByName[name]; !ok {
				t.Fatalf("round %d: missing stage span %q (have %v)", ri, name, stages)
			}
		}
		for name, want := range map[string]map[string]string{
			"engine.stage.design":  wantDesign[ri],
			"engine.stage.respond": wantRespond[ri],
		} {
			a := attrMap(stageByName[name])
			for k, v := range want {
				if a[k] != v {
					t.Errorf("round %d %s: %s = %q, want %q", ri, name, k, a[k], v)
				}
			}
			if a["drift"] != wantDrift {
				t.Errorf("round %d %s: drift = %q, want %q", ri, name, a["drift"], wantDrift)
			}
		}
	}
}

// TestEngineUntracedContext pins that a bare context yields no spans at
// all — the disabled path records nothing and LastDriftClass still
// reports the round classification.
func TestEngineUntracedContext(t *testing.T) {
	pop := archetypePopulation(t, 6)
	rec := spans.NewRecorder(4, 2)
	eng, err := engine.New(pop, engine.Config{Policy: &designPolicy{}, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := rec.Completed(); got != 0 {
		t.Fatalf("untraced run recorded %d traces", got)
	}
	declared, applied := eng.LastDriftClass()
	if declared != "viewKeep" || applied != "viewFull" {
		t.Fatalf("LastDriftClass = (%q, %q), want (viewKeep, viewFull) for a first round", declared, applied)
	}
}
