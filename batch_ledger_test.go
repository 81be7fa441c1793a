package dyncontract

import (
	"context"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"dyncontract/internal/contract"
	"dyncontract/internal/core"
	"dyncontract/internal/effort"
	"dyncontract/internal/engine"
	"dyncontract/internal/platform"
	"dyncontract/internal/spans"
	"dyncontract/internal/worker"
)

// scalarDesignPolicy is the reference for the batched cold path: it calls
// core.ReferenceDesign directly per agent — no solver pool, no
// fingerprint dedup, no scratch — so any ledger it disagrees with traces
// straight to the batched solve.
type scalarDesignPolicy struct{}

func (scalarDesignPolicy) Name() string { return "scalar-design-reference" }

func (scalarDesignPolicy) Contracts(ctx context.Context, pop *platform.Population) (map[string]*contract.PiecewiseLinear, error) {
	out := make(map[string]*contract.PiecewiseLinear, len(pop.Agents))
	for _, a := range pop.Agents {
		res, err := core.ReferenceDesign(a, core.Config{Part: pop.Part, Mu: pop.Mu, W: pop.Weights[a.ID]})
		if err != nil {
			return nil, err
		}
		out[a.ID] = res.Contract
	}
	return out, nil
}

// ledgerPopulation builds a mixed population that routes the batched solve
// through every behavioural corner: the three archetypes plus an agent
// whose reservation forces the participation lift and one whose ω clamps
// the slope chain.
func ledgerPopulation(t *testing.T, n int) *platform.Population {
	t.Helper()
	psi, err := effort.NewQuadratic(-0.02, 2, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	part, err := effort.NewPartition(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	pop := &platform.Population{
		Weights:    make(map[string]float64, n),
		MaliceProb: make(map[string]float64, n),
		Part:       part,
		Mu:         1,
	}
	for i := 0; i < n; i++ {
		var a *worker.Agent
		var w float64
		switch i % 5 {
		case 0:
			a, err = worker.NewHonest(fmt.Sprintf("h%05d", i), psi, 1, part.YMax())
			w = 1
		case 1:
			a, err = worker.NewMalicious(fmt.Sprintf("m%05d", i), psi, 1, 0.5, part.YMax())
			w = 0.8
		case 2:
			a, err = worker.NewCommunity(fmt.Sprintf("c%05d", i), psi, 1, 0.5, 3, part.YMax())
			w = 0.5
		case 3:
			a, err = worker.NewHonest(fmt.Sprintf("r%05d", i), psi, 1, part.YMax())
			w = 1
			if err == nil {
				a.Reservation = 60 // forces the participation lift at every k
			}
		default:
			a, err = worker.NewMalicious(fmt.Sprintf("x%05d", i), psi, 1, 5, part.YMax())
			w = 0.7 // ω = 5 clamps the slope recursion
		}
		if err != nil {
			t.Fatal(err)
		}
		pop.Agents = append(pop.Agents, a)
		pop.Weights[a.ID] = w
		pop.MaliceProb[a.ID] = 0.1
	}
	return pop
}

// TestBatchedDesignLedgerIdentical pins the tentpole's end-to-end
// guarantee: DynamicPolicy — whose designs run through the batched
// core.DesignInto over retained and pooled scratch — must produce a
// ledger byte-identical to a policy calling core.ReferenceDesign per
// agent, warm and under a weight churn that keeps every round's designs
// cold.
func TestBatchedDesignLedgerIdentical(t *testing.T) {
	ctx := context.Background()
	const rounds, agents = 5, 40

	// Deterministic churn: every agent's weight moves every round, so no
	// design fingerprint survives and each round re-runs the cold path.
	churn := func(round int, pop *platform.Population) {
		for _, a := range pop.Agents {
			pop.Weights[a.ID] *= 1 + 1e-3*float64(round+1)
		}
	}

	run := func(pol engine.Policy, cold bool) []engine.Round {
		t.Helper()
		cfg := engine.Config{
			Policy: pol,
			Rounds: rounds,
			Cache:  engine.NewCache(),
			Memo:   engine.NewRespondMemo(),
		}
		if cold {
			cfg.Drift = churn
		}
		led, err := engine.RunLedger(ctx, ledgerPopulation(t, agents), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return led
	}

	for _, cold := range []bool{false, true} {
		ref := run(scalarDesignPolicy{}, cold)
		if len(ref) != rounds {
			t.Fatalf("reference ledger has %d rounds, want %d", len(ref), rounds)
		}
		if got := run(&platform.DynamicPolicy{}, cold); !reflect.DeepEqual(got, ref) {
			t.Errorf("cold=%v: batched ledger differs from scalar reference", cold)
		}
	}
}

// TestDesignSpanBatchAttrs pins the cold-path observability: under
// DynamicPolicy a traced round's engine.stage.design span reports the
// design batch size and the retained scratch's cumulative use count. The
// cold round carries a batch of every design key, built across
// GOMAXPROCS on pooled scratch; a later round that meets one new key
// builds it inline over the retained scratch, whose use count then moves.
func TestDesignSpanBatchAttrs(t *testing.T) {
	pop := ledgerPopulation(t, 24)
	rec := spans.NewRecorder(8, 4)
	tracer := spans.New(spans.Config{Sample: 1, Seed: 5, Recorder: rec})

	eng, err := engine.New(pop, engine.Config{
		Policy: &platform.DynamicPolicy{},
		Rounds: 1,
		Cache:  engine.NewCache(),
		Memo:   engine.NewRespondMemo(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// designAttrs runs one traced round and returns its design stage's
	// batch and scratch.uses.
	designAttrs := func() (batch, uses int) {
		t.Helper()
		root := tracer.Root("test.batch-attrs")
		if err := eng.Step(spans.ContextWith(context.Background(), root)); err != nil {
			t.Fatal(err)
		}
		root.End()
		tr, ok := rec.Lookup(root.TraceID())
		if !ok {
			t.Fatal("trace not recorded")
		}
		designSpans := 0
		for _, sd := range tr.Spans {
			if sd.Name != "engine.stage.design" {
				continue
			}
			designSpans++
			attrs := make(map[string]string, len(sd.Attrs))
			for _, a := range sd.Attrs {
				attrs[a.Key] = a.Value
			}
			if batch, err = strconv.Atoi(attrs["batch"]); err != nil {
				t.Fatalf("span missing integer batch attr: %v (attrs %v)", err, attrs)
			}
			if uses, err = strconv.Atoi(attrs["scratch.uses"]); err != nil {
				t.Fatalf("span missing integer scratch.uses attr: %v (attrs %v)", err, attrs)
			}
		}
		if designSpans != 1 {
			t.Fatalf("got %d engine.stage.design spans, want 1", designSpans)
		}
		return batch, uses
	}

	if batch, _ := designAttrs(); batch != 5 {
		t.Errorf("cold round reported batch=%d, want 5 (one per design key)", batch)
	}
	a := pop.Agents[0]
	a.Beta = 1.3 // a design key no agent holds
	pop.Touch(a.ID)
	if batch, uses := designAttrs(); batch != 1 || uses == 0 {
		t.Errorf("one-key round reported batch=%d scratch uses=%d, want 1 and > 0", batch, uses)
	}
}
