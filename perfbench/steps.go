package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dyncontract/internal/core"
	"dyncontract/internal/engine"
	"dyncontract/internal/journal"
	"dyncontract/internal/server"
	"dyncontract/internal/worker"
)

// snapshotStep is the step after which a traced serve session takes a
// snapshot by hand, to time it: sessions end before an automatic one.
const snapshotStep = 100

// runSteps sends each step's drift, round and design query to the session
// at path, closed loop, and checks every round against want[i]. cmds is
// the session's journaled command count before the first step; with
// layers on, a snapshot is taken by hand after snapshotStep steps and
// timed. It returns the session's command count since its last snapshot.
func runSteps(s *served, r *results, path string, steps []step, want []summary, cmds int, l *layers) int {
	for i := range steps {
		st := &steps[i]
		trace := l.tr().newTrace()
		root := l.tr().begin("step", trace, 0)

		dcs := make([]call, len(st.drifts))
		for k, d := range st.drifts {
			dcs[k] = s.do("POST", path+"/drift", d.body)
			l.tr().record("server.drift", trace, root, dcs[k].wall)
			r.record("drift", dcs[k])
			cmds++
			l.drift(r, d, trace, root)
		}

		rc := s.do("POST", path+"/rounds", roundBody)
		l.tr().record("server.round", trace, root, rc.wall)
		r.record("round", rc)
		cmds++
		if rc.ok() {
			rj, err := decodeRound(rc.body)
			if err == nil {
				err = sameRound(rj, want[i])
			}
			r.check(err)
		}
		l.round(r, st, want[i], trace, root)

		var qc call
		if st.design != nil {
			qc = s.do("POST", path+"/design", st.design)
			l.tr().record("server.design", trace, root, qc.wall)
			r.record("design", qc)
			if qc.ok() {
				r.check(sameContract(qc.body, st))
			}
			l.design(r, st, trace, root)
		}

		l.wire(r, st, dcs, rc, qc, trace, root)
		l.tr().end(root)
		for _, dc := range dcs {
			r.latency("drift", dc)
		}
		r.latency("round", rc)
		if st.design != nil {
			r.latency("design", qc)
		}

		if l != nil && i+1 == snapshotStep {
			l.snapshot(s, r, path)
			cmds = 0
		}
	}
	return cmds
}

// layers times, from outside, the calls each layer's public functions
// make for one step: the server's codec and validation, the engine round
// on a mirror fed the same declarations, core designs and worker best
// responses for the fingerprints the step made new, and journal appends
// to a store of the benchmark's own. A nil *layers is off.
type layers struct {
	rec     *recorder
	m       *mirror
	scratch core.Scratch
	seen    map[engine.Fingerprint]bool
	jdir    string
	jw      *journal.Writer
	appends int

	// Per-step sums.
	decode, encode, self, reqKB, respKB []float64
	// Per-step pieces of the current step, for self time.
	validate, engineStep time.Duration

	steps                             int
	hits, misses, memoHit, memoMiss   uint64
	rebuiltShards, fullRebuilds       uint64
	snapshotMs, snapshotMB            []float64
	recoverMs, replayMs, replayedCmds []float64
}

// newLayers starts layer timing for a session whose mirror is m, already
// at the session's current state.
func newLayers(rec *recorder, m *mirror, dir string) (*layers, error) {
	st, err := journal.Open(dir, journal.Options{Mode: journal.ModeBuffered})
	if err != nil {
		return nil, err
	}
	jw, err := st.Create("layers")
	if err != nil {
		return nil, err
	}
	l := &layers{rec: rec, m: m, seen: make(map[engine.Fingerprint]bool), jdir: filepath.Join(dir, "layers"), jw: jw}
	for _, a := range m.pop.Agents {
		l.seen[l.fingerprint(a.ID)] = true
	}
	return l, nil
}

func (l *layers) tr() *recorder {
	if l == nil {
		return nil
	}
	return l.rec
}

func (l *layers) fingerprint(id string) engine.Fingerprint {
	p := l.m.pop
	return engine.FingerprintOf(l.m.byID[id], core.Config{Part: p.Part, Mu: p.Mu, W: p.Weights[id]})
}

// drift applies one drift to the mirror and times the population
// validation the server's drift route runs.
func (l *layers) drift(r *results, d drift, trace, root uint64) {
	if l == nil {
		return
	}
	if err := l.m.apply(&d.req); err != nil {
		r.check(err)
		return
	}
	var err error
	l.validate += l.rec.timed("server.validate", trace, root, func() { err = l.m.pop.Validate() })
	r.check(err)
	l.append(journal.KindDrift, d.body, trace, root)
}

// round steps the mirror, checks its round against want (as the served
// round is, so the timings are of the same work), and counts the engine's
// cache, memo and drift work; then designs and best-responds every
// fingerprint the step made new, as the engine's cold path does.
func (l *layers) round(r *results, st *step, want summary, trace, root uint64) {
	if l == nil {
		return
	}
	l.append(journal.KindRound, roundBody, trace, root)
	c0, m0 := l.m.cache.Stats(), l.m.memo.Stats()
	rebuilt := l.m.reg.Counter(engine.MetricDriftShardsRebuilt)
	s0 := rebuilt.Value()
	var err error
	l.engineStep = l.rec.timed("engine.step", trace, root, func() { err = l.m.step(context.Background()) })
	if err == nil {
		last := l.m.last
		err = sameRound(server.RoundJSON{Round: last.Index, Benefit: last.Benefit, Cost: last.Cost, Utility: last.Utility}, want)
	}
	r.check(err)
	c1, m1 := l.m.cache.Stats(), l.m.memo.Stats()
	l.steps++
	l.hits += c1.Hits - c0.Hits
	l.misses += c1.Misses - c0.Misses
	l.memoHit += m1.Hits - m0.Hits
	l.memoMiss += m1.Misses - m0.Misses
	l.rebuiltShards += rebuilt.Value() - s0
	if declared, applied := l.m.eng.LastDriftClass(); (declared == "viewSparse" || declared == "viewStructural") && applied == "viewFull" {
		l.fullRebuilds++
	}
	for _, d := range st.drifts {
		for _, id := range touchedIDs(&d.req) {
			l.designNew(l.m.byID[id], l.m.pop.Weights[id], trace, root)
		}
	}
}

// touchedIDs lists the agents a drift adds or changes (removed agents
// need no design).
func touchedIDs(d *server.DriftRequest) []string {
	var ids []string
	for _, a := range d.Add {
		ids = append(ids, a.ID)
	}
	for _, m := range []map[string]float64{d.Weights, d.Beta, d.Omega} {
		for id := range m {
			ids = append(ids, id)
		}
	}
	return ids
}

// designNew runs core.DesignInto and the worker's best response for an
// agent whose fingerprint the session has not designed yet.
func (l *layers) designNew(a *worker.Agent, w float64, trace, root uint64) {
	p := l.m.pop
	cfg := core.Config{Part: p.Part, Mu: p.Mu, W: w}
	fp := engine.FingerprintOf(a, cfg)
	if l.seen[fp] {
		return
	}
	l.seen[fp] = true
	var res *core.Result
	var err error
	l.rec.timed("core.design", trace, root, func() { res, err = core.DesignInto(a, cfg, &l.scratch) })
	if err != nil || res.Contract == nil {
		return
	}
	l.rec.timed("worker.best_response", trace, root, func() { _, _ = a.BestResponse(res.Contract, p.Part) })
}

// sameContract checks a design-query answer against the step's expected
// contract, byte for byte.
func sameContract(body []byte, st *step) error {
	var resp struct {
		Contract json.RawMessage `json:"contract"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("design answer: %w", err)
	}
	if !bytes.Equal(resp.Contract, st.contract) {
		i := 0
		for i < len(resp.Contract) && i < len(st.contract) && resp.Contract[i] == st.contract[i] {
			i++
		}
		return fmt.Errorf("design of %s at weight %v: served contract differs from core.DesignInto's at byte %d of %d", st.queried.ID, st.queried.Weight, i, len(st.contract))
	}
	return nil
}

// design times the cold design a query for a new worker needs (a query
// for a session agent whose fingerprint is designed is skipped).
func (l *layers) design(r *results, st *step, trace, root uint64) {
	if l == nil {
		return
	}
	a, err := st.queried.Agent()
	if err != nil {
		r.check(err)
		return
	}
	l.designNew(a, st.queried.Weight, trace, root)
}

// append journals one command to the benchmark's own store, flushed as
// the server flushes when its queue is idle.
func (l *layers) append(kind journal.Kind, body []byte, trace, root uint64) {
	l.rec.timed("journal.append", trace, root, func() {
		if _, err := l.jw.Append(kind, body); err == nil {
			_ = l.jw.Flush()
		}
	})
	l.appends++
}

// wire times the JSON codec of the step's wire types: decoding each
// request body as the server does, and encoding each response.
func (l *layers) wire(r *results, st *step, dcs []call, rc, qc call, trace, root uint64) {
	if l == nil {
		return
	}
	type msg struct {
		body []byte
		v    any
		hot  bool // decoded or encoded under the drift and round handlers
	}
	var reqs, resps []msg
	var reqB, respB int
	for i, d := range st.drifts {
		reqs = append(reqs, msg{d.body, &server.DriftRequest{}, true})
		resps = append(resps, msg{dcs[i].body, &server.DriftResponse{}, true})
	}
	reqs = append(reqs, msg{roundBody, &server.AdvanceRoundRequest{}, true}, msg{st.design, &server.DesignQueryRequest{}, false})
	resps = append(resps, msg{rc.body, &server.RoundJSON{}, true}, msg{qc.body, &server.DesignQueryResponse{}, false})
	var dec, enc, hot time.Duration
	for _, m := range reqs {
		reqB += len(m.body)
		t := l.rec.timed("server.decode", trace, root, func() {
			jd := json.NewDecoder(bytes.NewReader(m.body))
			jd.DisallowUnknownFields()
			r.check(jd.Decode(m.v))
		})
		dec += t
		if m.hot {
			hot += t
		}
	}
	for _, m := range resps {
		respB += len(m.body)
		if err := json.Unmarshal(m.body, m.v); err != nil {
			r.check(fmt.Errorf("response: %w", err))
			continue
		}
		t := l.rec.timed("server.encode", trace, root, func() { r.check(json.NewEncoder(io.Discard).Encode(m.v)) })
		enc += t
		if m.hot {
			hot += t
		}
	}
	l.decode = append(l.decode, ms(dec))
	l.encode = append(l.encode, ms(enc))
	l.reqKB = append(l.reqKB, float64(reqB)/1024)
	l.respKB = append(l.respKB, float64(respB)/1024)
	// The drift and round handlers' time minus the layers timed under
	// them: validation, the engine round, and their codec.
	handlers := rc.wall
	for _, dc := range dcs {
		handlers += dc.wall
	}
	l.self = append(l.self, ms(handlers-l.validate-l.engineStep-hot))
	l.validate = 0
}

// snapshot takes, by hand, the snapshot the session's next command would
// trigger, and times it to its commit.
func (l *layers) snapshot(s *served, r *results, path string) {
	c := s.do("POST", path+"/snapshot", nil)
	r.record("snapshot", c)
	if !c.ok() {
		return
	}
	var resp server.SnapshotResponse
	if err := json.Unmarshal(c.body, &resp); err != nil {
		r.fail("snapshot", err)
		return
	}
	l.snapshotMs = append(l.snapshotMs, ms(c.wall))
	l.snapshotMB = append(l.snapshotMB, float64(resp.Bytes)/(1<<20))
}

// bytesPerCmd is the benchmark store's journal size per appended command.
// It is the writer's last use, and closes it.
func (l *layers) bytesPerCmd() float64 {
	if err := l.jw.Close(); err != nil || l.appends == 0 {
		return nan
	}
	var total int64
	_ = filepath.WalkDir(l.jdir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total) / float64(l.appends)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
