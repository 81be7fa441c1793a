package engine_test

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"dyncontract/internal/engine"
	"dyncontract/internal/worker"
)

// indexLane is one population the index fuzzer edits: an engine over it
// (nil for the reference lane), the rounds it produced, and the stack of
// undos for the Add and Remove calls not yet undone, each with the state
// it must restore.
type indexLane struct {
	pop   *engine.Population
	eng   *engine.Engine
	led   *engine.Ledger
	undos []indexUndo
}

type indexUndo struct {
	undo    func()
	agents  []*worker.Agent
	weights map[string]float64
	malice  map[string]float64
}

// indexHarness applies one byte script to every lane alike: lane 0 runs
// an engine with a design cache, lane 1 adds a respond memo, and lane 2 is
// the reference population.
type indexHarness struct {
	t       *testing.T
	lanes   []*indexLane
	ids     []string // every ID any lane has held
	removed []string // IDs removed through Remove or a direct splice
	fresh   int
}

var indexWeights = []float64{0.5, 0.8, 1, 1.25}

func newIndexHarness(t *testing.T) *indexHarness {
	h := &indexHarness{t: t}
	for lane := range 3 {
		pop := archetypePopulation(t, 9)
		l := &indexLane{pop: pop}
		if lane < 2 {
			l.led = &engine.Ledger{}
			cfg := engine.Config{
				Policy:    &viewDesignPolicy{},
				Rounds:    1,
				Cache:     engine.NewCache(),
				Observers: []engine.Observer{l.led},
			}
			if lane == 1 {
				cfg.Memo = engine.NewRespondMemo()
			}
			eng, err := engine.New(pop, cfg)
			if err != nil {
				t.Fatal(err)
			}
			l.eng = eng
		}
		h.lanes = append(h.lanes, l)
	}
	for _, a := range h.lanes[0].pop.Agents {
		h.ids = append(h.ids, a.ID)
	}
	return h
}

// agent builds a lane's own copy of a joiner: every lane gets a distinct
// object with the same ID and parameters.
func (h *indexHarness) agent(id string, kind byte, pop *engine.Population) *worker.Agent {
	a := *pop.Agents[0] // the archetypes share ψ and β
	a.ID = id
	switch kind % 3 {
	case 0:
		a.Class, a.Omega, a.Size = worker.Honest, 0, 1
	case 1:
		a.Class, a.Omega, a.Size = worker.NonCollusiveMalicious, 0.5, 1
	default:
		a.Class, a.Omega, a.Size = worker.CollusiveMalicious, 0.5, 3
	}
	return &a
}

func (h *indexHarness) freshID() string {
	// Fresh IDs sort between the archetype classes ("c" < "j" < "m"), so
	// joins land mid-view and shift survivor segments.
	id := fmt.Sprintf("j%03d", h.fresh)
	h.fresh++
	h.ids = append(h.ids, id)
	return id
}

func (h *indexHarness) forget(id string) {
	if i := slices.Index(h.removed, id); i >= 0 {
		h.removed = slices.Delete(h.removed, i, i+1)
	}
}

// op applies one scripted operation to every lane.
func (h *indexHarness) op(code, arg byte) {
	t := h.t
	n := len(h.lanes[0].pop.Agents)
	w := indexWeights[int(arg)%len(indexWeights)]
	switch code % 8 {
	case 0, 7: // Add: a fresh ID, or (7) one removed earlier
		id := ""
		if code%8 == 7 && len(h.removed) > 0 {
			id = h.removed[int(arg)%len(h.removed)]
		} else {
			id = h.freshID()
		}
		h.forget(id)
		for _, l := range h.lanes {
			snap := l.snapshot()
			undo, err := l.pop.Add(h.agent(id, arg, l.pop), w, float64(arg%5)/4)
			if err != nil {
				t.Fatalf("Add(%s): %v", id, err)
			}
			snap.undo = undo
			l.undos = append(l.undos, snap)
		}
	case 1: // Remove
		if n <= 1 {
			return
		}
		id := h.lanes[0].pop.Agents[int(arg)%n].ID
		h.removed = append(h.removed, id)
		for _, l := range h.lanes {
			snap := l.snapshot()
			undo, err := l.pop.Remove(id)
			if err != nil {
				t.Fatalf("Remove(%s): %v", id, err)
			}
			snap.undo = undo
			l.undos = append(l.undos, snap)
		}
	case 2: // undo the newest Add or Remove
		if len(h.lanes[0].undos) == 0 {
			return
		}
		for li, l := range h.lanes {
			u := l.undos[len(l.undos)-1]
			l.undos = l.undos[:len(l.undos)-1]
			u.undo()
			if !slices.Equal(l.pop.Agents, u.agents) || !maps.Equal(l.pop.Weights, u.weights) || !maps.Equal(l.pop.MaliceProb, u.malice) {
				t.Fatalf("lane %d: undo did not restore Agents, Weights and MaliceProb exactly", li)
			}
		}
		h.removed = h.removed[:0]
		for _, id := range h.ids {
			if h.pos(h.lanes[0].pop, id) < 0 {
				h.removed = append(h.removed, id)
			}
		}
	case 3: // Touch: an in-place weight drift
		id := h.lanes[0].pop.Agents[int(arg)%n].ID
		for _, l := range h.lanes {
			l.pop.Weights[id] = w
			l.pop.Touch(id)
			l.undos = nil
		}
	case 4: // direct append, declared by TouchJoin or Bump
		id := h.freshID()
		for _, l := range h.lanes {
			l.pop.Agents = append(l.pop.Agents, h.agent(id, arg, l.pop))
			l.pop.Weights[id] = w
			if arg&1 == 0 {
				l.pop.TouchJoin(id)
			} else {
				l.pop.Bump()
			}
			l.undos = nil
		}
	case 5: // direct order-keeping splice, declared by TouchLeave or Bump
		if n <= 1 {
			return
		}
		i := int(arg) % n
		id := h.lanes[0].pop.Agents[i].ID
		h.removed = append(h.removed, id)
		for _, l := range h.lanes {
			l.pop.Agents = slices.Delete(l.pop.Agents, i, i+1)
			delete(l.pop.Weights, id)
			delete(l.pop.MaliceProb, id)
			if arg&1 == 0 {
				l.pop.TouchLeave(id)
			} else {
				l.pop.Bump()
			}
			l.undos = nil
		}
	case 6:
		h.round()
	}
}

func (l *indexLane) snapshot() indexUndo {
	return indexUndo{
		agents:  slices.Clone(l.pop.Agents),
		weights: maps.Clone(l.pop.Weights),
		malice:  maps.Clone(l.pop.MaliceProb),
	}
}

// pos is the linear-scan answer Lookup must agree with.
func (h *indexHarness) pos(pop *engine.Population, id string) int {
	return slices.IndexFunc(pop.Agents, func(a *worker.Agent) bool { return a.ID == id })
}

// checkIndex asks the lane's index for every ID ever held, live or gone.
func (h *indexHarness) checkIndex(li int) {
	pop := h.lanes[li].pop
	for _, id := range h.ids {
		want := h.pos(pop, id)
		got, ok := pop.Lookup(id)
		if ok != (want >= 0) || (ok && got != want) {
			h.t.Fatalf("lane %d: Lookup(%s) = %d, %v; linear scan says %d", li, id, got, ok, want)
		}
	}
}

// round steps every engine once and compares each round with the
// reference loop's round over the reference lane.
func (h *indexHarness) round() {
	ref := h.lanes[len(h.lanes)-1]
	want, err := runReferenceRound(ref.pop)
	if err != nil {
		h.t.Fatalf("reference: %v", err)
	}
	for li, l := range h.lanes[:len(h.lanes)-1] {
		if err := l.eng.Step(context.Background()); err != nil {
			h.t.Fatalf("lane %d: step: %v", li, err)
		}
		got := l.led.Rounds[len(l.led.Rounds)-1]
		got.Index = want.Index
		if !reflect.DeepEqual(got, want) {
			h.t.Fatalf("lane %d round %d differs from the reference:\n got %+v\nwant %+v", li, len(l.led.Rounds)-1, got, want)
		}
	}
}

// runReferenceRound runs one reference round over pop with a fresh
// uncached policy.
func runReferenceRound(pop *engine.Population) (engine.Round, error) {
	ledger, err := runReference(context.Background(), pop, engine.Config{Policy: &designPolicy{}, Rounds: 1})
	if err != nil {
		return engine.Round{}, err
	}
	return ledger[0], nil
}

// FuzzPopulationIndex drives byte-scripted edits of one population
// across the engine lanes: Add and Remove with and without
// undo (also across rounds), Touch, direct appends and splices declared by
// TouchJoin/TouchLeave or Bump, and rounds. After every op the first
// lane's Population.Lookup must agree with a linear scan for every live
// and every removed ID (the other lanes are checked only at the end, so
// their engines meet stale indexes); every undo must restore Agents,
// Weights and MaliceProb exactly; and every round must equal the
// reference loop's.
func FuzzPopulationIndex(f *testing.F) {
	f.Add([]byte{0, 1, 6, 0, 1, 3, 2, 0, 6, 0})
	f.Add([]byte{1, 0, 1, 4, 2, 0, 2, 0, 6, 0, 7, 0, 6, 0})
	f.Add([]byte{0, 2, 6, 0, 2, 0, 6, 0, 1, 5, 6, 0, 2, 0, 6, 0})
	f.Add([]byte{4, 0, 4, 1, 5, 2, 5, 3, 6, 0, 3, 7, 6, 0, 1, 1, 0, 3, 2, 0, 6, 0})
	f.Add([]byte{5, 4, 1, 0, 6, 0, 7, 1, 7, 0, 6, 0, 3, 3, 1, 2, 2, 0, 6, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 1, 9, 1, 3, 3, 10, 6, 0, 2, 0, 2, 0, 6, 0, 2, 0, 2, 0, 6, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 128 {
			script = script[:128]
		}
		h := newIndexHarness(t)
		for i := 0; i+1 < len(script); i += 2 {
			h.op(script[i], script[i+1])
			h.checkIndex(0)
		}
		h.round()
		for li := range h.lanes {
			h.checkIndex(li)
		}
	})
}
