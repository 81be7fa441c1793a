package engine_test

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dyncontract/internal/contract"
	"dyncontract/internal/core"
	"dyncontract/internal/effort"
	"dyncontract/internal/engine"
	"dyncontract/internal/telemetry"
	"dyncontract/internal/worker"
)

// shardDesignPolicy extends designPolicy with per-shard design through
// engine.ShardDesigner — the minimal ShardPolicy, mirroring
// platform.DynamicPolicy's wiring.
type shardDesignPolicy struct {
	designPolicy
}

func (p *shardDesignPolicy) ShardContracts(ctx context.Context, pop *engine.Population, sh *engine.Shard, dst []*contract.PiecewiseLinear) (bool, error) {
	return p.d.Shard(sh.Index).Contracts(ctx, pop, sh, dst)
}

// FingerprintPure marks the policy for the sparse-drift patch route —
// ShardDesigner resolves contracts purely by fingerprint.
func (p *shardDesignPolicy) FingerprintPure() {}

var (
	_ engine.ShardPolicy           = (*shardDesignPolicy)(nil)
	_ engine.FingerprintPurePolicy = (*shardDesignPolicy)(nil)
)

// TestShardOf pins the shard key: FNV-1a over the agent ID reduced mod n.
// Matching the stdlib's hash/fnv makes the cross-process stability claim
// checkable — any two builds of this code shard a population identically.
func TestShardOf(t *testing.T) {
	ids := []string{"", "h00000", "m00001", "c00002", "worker-a", "worker-b"}
	for _, id := range ids {
		h := fnv.New64a()
		h.Write([]byte(id))
		for _, n := range []int{1, 2, 3, 8, 64} {
			want := 0
			if n > 1 {
				want = int(h.Sum64() % uint64(n))
			}
			if got := engine.ShardOf(id, n); got != want {
				t.Errorf("ShardOf(%q, %d) = %d, want %d", id, n, got, want)
			}
			if got := engine.ShardOf(id, n); got < 0 || got >= n {
				t.Errorf("ShardOf(%q, %d) = %d out of range", id, n, got)
			}
		}
	}
	if got := engine.ShardOf("x", 0); got != 0 {
		t.Errorf("ShardOf(x, 0) = %d, want 0", got)
	}
}

// TestPopulationShards checks the partition invariants: every agent lands
// in ShardOf's shard exactly once, shards preserve global ID order, and
// the indexed views (Global, Weights, Malice, FPs) align with their
// agents.
func TestPopulationShards(t *testing.T) {
	pop := archetypePopulation(t, 23)
	const n = 4
	shards := pop.Shards(n)
	if len(shards) != n {
		t.Fatalf("len(shards) = %d, want %d", len(shards), n)
	}

	sorted := make([]string, 0, len(pop.Agents))
	for _, a := range pop.Agents {
		sorted = append(sorted, a.ID)
	}
	sort.Strings(sorted)

	seen := make(map[string]bool)
	for si, sh := range shards {
		if sh.Index != si {
			t.Errorf("shard %d: Index = %d", si, sh.Index)
		}
		if sh.Solo {
			t.Errorf("shard %d of %d reports Solo", si, n)
		}
		if len(sh.Global) != len(sh.Agents) || len(sh.Weights) != len(sh.Agents) ||
			len(sh.Malice) != len(sh.Agents) || len(sh.FPs) != len(sh.Agents) {
			t.Fatalf("shard %d: misaligned views", si)
		}
		prev := ""
		for i, a := range sh.Agents {
			if engine.ShardOf(a.ID, n) != si {
				t.Errorf("agent %s in shard %d, ShardOf says %d", a.ID, si, engine.ShardOf(a.ID, n))
			}
			if seen[a.ID] {
				t.Errorf("agent %s in more than one shard", a.ID)
			}
			seen[a.ID] = true
			if a.ID <= prev && i > 0 {
				t.Errorf("shard %d not ID-sorted: %s after %s", si, a.ID, prev)
			}
			prev = a.ID
			if got := sorted[sh.Global[i]]; got != a.ID {
				t.Errorf("shard %d Global[%d] → %s, want %s", si, i, got, a.ID)
			}
			if sh.Weights[i] != pop.Weights[a.ID] {
				t.Errorf("agent %s weight view %v, want %v", a.ID, sh.Weights[i], pop.Weights[a.ID])
			}
			if sh.Malice[i] != pop.MaliceProb[a.ID] {
				t.Errorf("agent %s malice view %v, want %v", a.ID, sh.Malice[i], pop.MaliceProb[a.ID])
			}
			wantFP := engine.FingerprintOf(a, core.Config{Part: pop.Part, Mu: pop.Mu, W: pop.Weights[a.ID]})
			if sh.FPs[i] != wantFP {
				t.Errorf("agent %s cached fingerprint differs from FingerprintOf", a.ID)
			}
		}
	}
	if len(seen) != len(pop.Agents) {
		t.Errorf("shards cover %d agents, want %d", len(seen), len(pop.Agents))
	}

	if got := pop.Shards(1); len(got) != 1 || !got[0].Solo {
		t.Errorf("Shards(1) is not one Solo shard")
	}
	if got := pop.Shards(0); got != nil {
		t.Errorf("Shards(0) = %v, want nil", got)
	}
	if got := pop.Shards(1000); len(got) != len(pop.Agents) {
		t.Errorf("Shards(1000) clamps to %d shards, want %d", len(got), len(pop.Agents))
	}
}

// structuralDrift is the determinism sweep's stress drift: weight drift
// every round, an agent added at round 2, one removed at round 3 (with
// its map entries, honouring Validate's orphan check), and the Agents
// slice reversed at round 4 — all deterministic.
func structuralDrift(tb testing.TB) func(int, *engine.Population) {
	tb.Helper()
	psi, err := effort.NewQuadratic(-0.02, 2, 1, 40)
	if err != nil {
		tb.Fatal(err)
	}
	return func(round int, pop *engine.Population) {
		for _, a := range pop.Agents {
			pop.Weights[a.ID] *= 1.03
		}
		switch round {
		case 2:
			a, err := worker.NewHonest("zz-joined", psi, 1, pop.Part.YMax())
			if err != nil {
				panic(err)
			}
			pop.Agents = append(pop.Agents, a)
			pop.Weights[a.ID] = 0.9
			pop.MaliceProb[a.ID] = 0.1
		case 3:
			gone := pop.Agents[0]
			pop.Agents = append(pop.Agents[:0], pop.Agents[1:]...)
			delete(pop.Weights, gone.ID)
			delete(pop.MaliceProb, gone.ID)
		case 4:
			for i, j := 0, len(pop.Agents)-1; i < j; i, j = i+1, j-1 {
				pop.Agents[i], pop.Agents[j] = pop.Agents[j], pop.Agents[i]
			}
		}
	}
}

// TestShardedLedgerIdentical is the tentpole determinism pin: for every
// shard count (0 runs as one shard), for both the ShardPolicy route and
// the plain-policy fallback, with and without the respond memo, the
// ledger is byte-identical to the naive reference round — under a drift
// that rescales weights, adds, removes, and reorders agents.
func TestShardedLedgerIdentical(t *testing.T) {
	ctx := context.Background()
	const rounds = 6
	run := func(shards int, shardPolicy, memo bool) []engine.Round {
		t.Helper()
		var pol engine.Policy
		if shardPolicy {
			pol = &shardDesignPolicy{}
		} else {
			pol = &designPolicy{}
		}
		cfg := engine.Config{
			Policy: pol,
			Rounds: rounds,
			Drift:  structuralDrift(t),
			Cache:  engine.NewCache(),
			Shards: shards,
		}
		if memo {
			cfg.Memo = engine.NewRespondMemo()
		}
		ledger, err := engine.RunLedger(ctx, archetypePopulation(t, 30), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ledger
	}

	ref := referenceLedger(t, archetypePopulation(t, 30), engine.Config{
		Policy: &designPolicy{},
		Rounds: rounds,
		Drift:  structuralDrift(t),
	})
	if len(ref) != rounds {
		t.Fatalf("reference ledger has %d rounds, want %d", len(ref), rounds)
	}
	for _, shards := range []int{0, 1, 2, 8, 64} {
		for _, shardPolicy := range []bool{true, false} {
			for _, memo := range []bool{true, false} {
				name := fmt.Sprintf("shards=%d/shardpolicy=%v/memo=%v", shards, shardPolicy, memo)
				if got := run(shards, shardPolicy, memo); !reflect.DeepEqual(got, ref) {
					t.Errorf("%s: ledger differs from reference", name)
				}
			}
		}
	}
}

// eventRecorder captures the full observable event stream in a
// pointer-free form, so streams from different engines can be compared.
type eventRecorder struct {
	events []string
}

func (r *eventRecorder) OnContracts(round int, cs map[string]*contract.PiecewiseLinear) {
	ids := make([]string, 0, len(cs))
	for id := range cs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	r.events = append(r.events, fmt.Sprintf("contracts r%d %v", round, ids))
}

func (r *eventRecorder) OnOutcome(round int, oc engine.AgentOutcome) {
	r.events = append(r.events, fmt.Sprintf("outcome r%d %s e=%.9f c=%.9f w=%.9f", round, oc.AgentID, oc.Effort, oc.Compensation, oc.Weight))
}

func (r *eventRecorder) OnRoundEnd(round engine.Round) error {
	r.events = append(r.events, fmt.Sprintf("end r%d u=%.9f", round.Index, round.Utility))
	return nil
}

// TestShardedObserverEventOrder pins that every shard count emits exactly
// the reference round's event stream: same OnContracts coverage, same
// per-agent OnOutcome order (global ID order, not shard order), same
// round ends.
func TestShardedObserverEventOrder(t *testing.T) {
	ctx := context.Background()
	run := func(shards int) []string {
		t.Helper()
		rec := &eventRecorder{}
		cfg := engine.Config{
			Policy:    &shardDesignPolicy{},
			Rounds:    3,
			Cache:     engine.NewCache(),
			Memo:      engine.NewRespondMemo(),
			Observers: []engine.Observer{rec},
			Shards:    shards,
		}
		if _, err := engine.RunLedger(ctx, archetypePopulation(t, 12), cfg); err != nil {
			t.Fatal(err)
		}
		return rec.events
	}
	ref := &eventRecorder{}
	referenceLedger(t, archetypePopulation(t, 12), engine.Config{
		Policy:    &designPolicy{},
		Rounds:    3,
		Observers: []engine.Observer{ref},
	})
	for _, shards := range []int{0, 1, 3, 8} {
		if got := run(shards); !reflect.DeepEqual(got, ref.events) {
			t.Errorf("shards=%d: event stream differs from reference", shards)
		}
	}
}

// TestShardedWarmSkipsRespond pins the sharded fast path: once every
// shard is warm (stable population, cached designs, dense contracts), the
// respond stage is skipped outright — the memo's counters freeze
// completely.
func TestShardedWarmSkipsRespond(t *testing.T) {
	ctx := context.Background()
	pop := archetypePopulation(t, 24)
	memo := engine.NewRespondMemo()
	eng, err := engine.New(pop, engine.Config{
		Policy: &shardDesignPolicy{},
		Rounds: 1,
		Cache:  engine.NewCache(),
		Memo:   memo,
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(ctx); err != nil {
		t.Fatal(err)
	}
	cold := memo.Stats()
	if cold.Misses == 0 {
		t.Fatalf("cold round recorded no memo misses: %+v", cold)
	}
	for i := 0; i < 5; i++ {
		if err := eng.Run(ctx); err != nil {
			t.Fatal(err)
		}
	}
	warm := memo.Stats()
	if warm.Hits != cold.Hits || warm.Misses != cold.Misses {
		t.Errorf("warm rounds touched the memo: cold %+v, after warm %+v", cold, warm)
	}
}

// TestShardedWarmRoundZeroAllocs extends the zero-alloc warm-round
// guarantee to the sharded pipeline: a warmed cache+memo sharded engine
// allocates nothing per Run — shard views, plans, segments, outcome
// buffer, and scratch are all reused, and warm rounds skip respond.
func TestShardedWarmRoundZeroAllocs(t *testing.T) {
	pop := archetypePopulation(t, 120)
	ctx := context.Background()
	eng, err := engine.New(pop, engine.Config{
		Policy: &shardDesignPolicy{},
		Rounds: 1,
		Cache:  engine.NewCache(),
		Memo:   engine.NewRespondMemo(),
		Shards: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(ctx); err != nil { // warm: shard views + designs + responses
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := eng.Run(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm sharded round allocates %v objects per Run, want 0", allocs)
	}
}

// TestShardedBumpSemantics pins the Bump contract, which is the same for
// every shard count: with no Drift configured, an in-place weight
// mutation is invisible (the indexed views are cached) until
// Population.Bump or Touch declares it, and a structural addition only
// appears once declared.
func TestShardedBumpSemantics(t *testing.T) {
	ctx := context.Background()
	psi, err := effort.NewQuadratic(-0.02, 2, 1, 40)
	if err != nil {
		t.Fatal(err)
	}

	newEng := func(pop *engine.Population, shards int, led *engine.Ledger) *engine.Engine {
		t.Helper()
		eng, err := engine.New(pop, engine.Config{
			Policy:    &shardDesignPolicy{},
			Rounds:    1,
			Cache:     engine.NewCache(),
			Observers: []engine.Observer{led},
			Shards:    shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	lastWeight := func(led *engine.Ledger, id string) (float64, bool) {
		for _, oc := range led.Rounds[len(led.Rounds)-1].Outcomes {
			if oc.AgentID == id {
				return oc.Weight, true
			}
		}
		return 0, false
	}

	t.Run("sharded stale until Bump", func(t *testing.T) {
		for _, shards := range []int{0, 1, 4} {
			for _, declare := range []string{"Bump", "Touch"} {
				pop := archetypePopulation(t, 12)
				led := &engine.Ledger{}
				eng := newEng(pop, shards, led)
				id := pop.Agents[0].ID
				if err := eng.Run(ctx); err != nil {
					t.Fatal(err)
				}
				w0, _ := lastWeight(led, id)

				pop.Weights[id] = w0 * 2 // in place, undeclared: pinned stale
				if err := eng.Run(ctx); err != nil {
					t.Fatal(err)
				}
				if w, _ := lastWeight(led, id); w != w0 {
					t.Errorf("shards=%d: weight visible before %s: got %v, want stale %v", shards, declare, w, w0)
				}

				if declare == "Bump" {
					pop.Bump()
				} else {
					pop.Touch(id)
				}
				if err := eng.Run(ctx); err != nil {
					t.Fatal(err)
				}
				if w, _ := lastWeight(led, id); w != w0*2 {
					t.Errorf("shards=%d: weight after %s = %v, want %v", shards, declare, w, w0*2)
				}
			}
		}
	})

	t.Run("structural add reshards on Bump", func(t *testing.T) {
		for _, shards := range []int{0, 1, 4} {
			pop := archetypePopulation(t, 12)
			led := &engine.Ledger{}
			eng := newEng(pop, shards, led)
			if err := eng.Run(ctx); err != nil {
				t.Fatal(err)
			}
			a, err := worker.NewHonest("zz-joined", psi, 1, pop.Part.YMax())
			if err != nil {
				t.Fatal(err)
			}
			pop.Agents = append(pop.Agents, a)
			pop.Weights[a.ID] = 0.9
			pop.MaliceProb[a.ID] = 0.1

			if err := eng.Run(ctx); err != nil {
				t.Fatal(err)
			}
			if _, ok := lastWeight(led, a.ID); ok {
				t.Errorf("shards=%d: added agent visible without Bump", shards)
			}
			pop.Bump()
			if err := eng.Run(ctx); err != nil {
				t.Fatal(err)
			}
			if w, ok := lastWeight(led, a.ID); !ok || w != 0.9 {
				t.Errorf("shards=%d: added agent after Bump: weight %v (present %v), want 0.9", shards, w, ok)
			}
		}
	})
}

// TestShardedResponderHook checks the custom-Responder route for every
// shard count: same ledger as the reference round.
func TestShardedResponderHook(t *testing.T) {
	ctx := context.Background()
	responder := func(round int, a *worker.Agent, c *contract.PiecewiseLinear, part effort.Partition) (float64, error) {
		return float64(round%3) + 1.5, nil
	}
	run := func(shards int) []engine.Round {
		t.Helper()
		ledger, err := engine.RunLedger(ctx, archetypePopulation(t, 18), engine.Config{
			Policy:    &shardDesignPolicy{},
			Rounds:    4,
			Responder: responder,
			Cache:     engine.NewCache(),
			Shards:    shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ledger
	}
	ref := referenceLedger(t, archetypePopulation(t, 18), engine.Config{
		Policy:    &designPolicy{},
		Rounds:    4,
		Responder: responder,
	})
	for _, shards := range []int{0, 2, 8} {
		if got := run(shards); !reflect.DeepEqual(got, ref) {
			t.Errorf("shards=%d: responder ledger differs from reference", shards)
		}
	}
}

// failingShardPolicy fails shard design on demand.
type failingShardPolicy struct {
	shardDesignPolicy
	fail bool
}

var errShardBoom = errors.New("shard boom")

func (p *failingShardPolicy) ShardContracts(ctx context.Context, pop *engine.Population, sh *engine.Shard, dst []*contract.PiecewiseLinear) (bool, error) {
	if p.fail {
		return false, errShardBoom
	}
	return p.shardDesignPolicy.ShardContracts(ctx, pop, sh, dst)
}

// TestShardedDesignError checks that a shard-design failure surfaces with
// the policy and shard attribution and wraps the cause.
func TestShardedDesignError(t *testing.T) {
	ctx := context.Background()
	pol := &failingShardPolicy{fail: true}
	_, err := engine.RunLedger(ctx, archetypePopulation(t, 9), engine.Config{
		Policy: pol,
		Rounds: 2,
		Cache:  engine.NewCache(),
		Shards: 3,
	})
	if !errors.Is(err, errShardBoom) {
		t.Fatalf("err = %v, want wrapped errShardBoom", err)
	}
	if !strings.Contains(err.Error(), "shard") || !strings.Contains(err.Error(), pol.Name()) {
		t.Errorf("err %q lacks shard/policy attribution", err)
	}
}

// TestShardedNegativeShardsRejected checks Config validation.
func TestShardedNegativeShardsRejected(t *testing.T) {
	_, err := engine.New(archetypePopulation(t, 3), engine.Config{
		Policy: &designPolicy{},
		Rounds: 1,
		Shards: -1,
	})
	if !errors.Is(err, engine.ErrBadConfig) {
		t.Errorf("err = %v, want ErrBadConfig", err)
	}
}

// TestRespondMemoSegment mirrors TestCacheSegment for the respond memo.
func TestRespondMemoSegment(t *testing.T) {
	m := engine.NewRespondMemo()
	segA, segB := m.Segment(), m.Segment()
	key := engine.DesignKey{Class: worker.Honest, Beta: 1}
	c := &contract.PiecewiseLinear{}
	resp := worker.Response{Effort: 3, Feedback: 2, Compensation: 1, Utility: 0.5}

	if _, ok := segA.Get(key, c); ok {
		t.Fatal("empty segment reported a hit")
	}
	segA.Put(key, c, resp)
	if got, ok := segB.Get(key, c); !ok || got != resp {
		t.Fatalf("sibling segment missed a published response: %+v ok=%v", got, ok)
	}
	if got, ok := segA.Get(key, c); !ok || got != resp {
		t.Fatal("local entry missed")
	}
	st := m.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("parent stats = %+v, want 2 hits / 1 miss / 1 entry", st)
	}

	m.Invalidate()
	if _, ok := segA.Get(key, c); ok {
		t.Error("segment served a stale entry after Invalidate")
	}
	if _, ok := segB.Get(key, c); ok {
		t.Error("sibling segment served a stale entry after Invalidate")
	}
}

// TestShardedStageTimings extends the stage-count pins to a multi-shard
// pipeline: the whole-stage histograms still observe once per round, the
// shard gauge reports the effective count, shard-design observes every
// shard every round, and shard-respond observes only executed (dirty)
// shards — the cold round — because warm rounds skip respond.
func TestShardedStageTimings(t *testing.T) {
	ctx := context.Background()
	reg := telemetry.NewRegistry()
	const rounds, shards = 3, 4
	eng, err := engine.New(archetypePopulation(t, 16), engine.Config{
		Policy:  &shardDesignPolicy{},
		Rounds:  rounds,
		Cache:   engine.NewCache(),
		Memo:    engine.NewRespondMemo(),
		Shards:  shards,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(ctx); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		engine.MetricStageDesignSeconds,
		engine.MetricStageRespondSeconds,
		engine.MetricStageSettleSeconds,
		engine.MetricStageObserveSeconds,
		engine.MetricRoundSeconds,
	} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count != rounds {
			t.Errorf("%s count = %v (present %v), want %d", name, h.Count, ok, rounds)
		}
	}
	if g := snap.Gauges[engine.MetricShards]; g != shards {
		t.Errorf("shards gauge = %v, want %d", g, shards)
	}
	if h := snap.Histograms[engine.MetricShardDesignSeconds]; h.Count != rounds*shards {
		t.Errorf("shard design count = %d, want %d", h.Count, rounds*shards)
	}
	if h := snap.Histograms[engine.MetricShardRespondSeconds]; h.Count != shards {
		t.Errorf("shard respond count = %d, want %d (cold round only)", h.Count, shards)
	}
}
