package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"time"

	"dyncontract/internal/journal"
	"dyncontract/internal/server"
)

// Session lengths. A serve session ends just before its 1024th command, so
// no automatic snapshot lands in it: snapshotting a 512-round ledger of
// 12k agents marshals a 1.2 GB JSON document and peaks the process above
// 4 GB. Runs pool at least minSessions sessions for ≥1000 samples of each
// op. The restart script crosses one snapshot and leaves a replay tail
// behind it.
const (
	serveSteps    = 500
	minSessions   = 2
	minRestarts   = 3
	paperPerClass = 5000
	archetypeN    = 12000
	restartClass  = 1000
	scriptSteps   = 400
	contSteps     = 200
	tracedOps     = 2
	tracedSteps   = 250
)

func genSteps(next func() step, n int) []step {
	steps := make([]step, n)
	for i := range steps {
		steps[i] = next()
	}
	return steps
}

func runPaperServe(b *bench) (*results, *layerReport, error) {
	specs, pop, err := paperPopulation(b.seed, paperPerClass)
	if err != nil {
		return nil, nil, err
	}
	create := newSession(specs, pop.Part.M, pop.Part.Delta, pop.Mu, b.shards)
	steps := genSteps(newPaperGen(b.seed, specs).next, serveSteps)
	if err := expectContracts(create, steps); err != nil {
		return nil, nil, err
	}
	b.stage("inputs")
	return runServe(b, create, steps)
}

func runArchetypeWarm(b *bench) (*results, *layerReport, error) {
	g, m, delta, mu, err := newArchetypeGen(b.seed, archetypeN)
	if err != nil {
		return nil, nil, err
	}
	create := newSession(append([]server.AgentSpec(nil), g.agents...), m, delta, mu, b.shards)
	steps := genSteps(g.next, serveSteps)
	if err := expectContracts(create, steps); err != nil {
		return nil, nil, err
	}
	b.stage("inputs")
	return runServe(b, create, steps)
}

// reference runs steps through a mirror: its first round, then per step
// the drift, a validation and a round.
func reference(create session, steps []step) (first summary, want []summary, m *mirror, err error) {
	if m, err = newMirror(&create.create); err != nil {
		return
	}
	if err = m.step(context.Background()); err != nil {
		return
	}
	first = m.last
	want, err = m.run(steps)
	return
}

// run applies each step's drifts to the mirror and steps it, returning
// the rounds.
func (m *mirror) run(steps []step) ([]summary, error) {
	want := make([]summary, len(steps))
	for i := range steps {
		for _, d := range steps[i].drifts {
			if err := m.apply(&d.req); err != nil {
				return nil, err
			}
			if err := m.pop.Validate(); err != nil {
				return nil, err
			}
		}
		if err := m.step(context.Background()); err != nil {
			return nil, err
		}
		want[i] = m.last
	}
	return want, nil
}

// runServe runs a serve workload: set-up samples, restarts of a young
// session, then whole timed sessions while --seconds allows.
func runServe(b *bench, create session, steps []step) (*results, *layerReport, error) {
	first, want, _, err := reference(create, steps)
	if err != nil {
		return nil, nil, fmt.Errorf("reference: %w", err)
	}
	// A restarted young session answers round 1 with no drift in between.
	rm, err := newMirror(&create.create)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < 2; i++ {
		if err := rm.step(context.Background()); err != nil {
			return nil, nil, err
		}
	}
	restartFirst := rm.last
	b.stage("reference")

	r := newResults()
	image := b.path("young")
	if err := setupPhase(b.path("setup"), image, r, create.body, first); err != nil {
		return nil, nil, err
	}
	b.stage("setup")
	var restarts []float64
	t := readCPUTimes()
	for i := 0; i < setupSamples; i++ {
		s, path, d, err := restartOp(image, b.path(fmt.Sprintf("restart-%d", i)), r, restartFirst, nil, 0)
		if err != nil {
			return nil, nil, err
		}
		if path != "" {
			restarts = append(restarts, d)
		}
		if err := s.close(0); err != nil {
			return nil, nil, err
		}
	}
	st := stolen(t, readCPUTimes())
	for _, d := range restarts {
		r.restart = append(r.restart, d*(1-st))
	}
	b.stage("restarts")
	start := time.Now()
	for k := 0; ; k++ {
		t0 := time.Now()
		if err := serveSession(r, create, steps, want, first, b.path(fmt.Sprintf("session-%d", k)), nil); err != nil {
			return nil, nil, err
		}
		if k+1 >= minSessions && time.Since(start)+time.Since(t0) > b.budget {
			break
		}
	}
	b.stage("sessions")
	if b.rec == nil {
		return r, nil, nil
	}

	lr := &layerReport{traced: newResults(), rec: b.rec}
	m, err := newMirror(&create.create)
	if err == nil {
		err = m.step(context.Background())
	}
	if err != nil {
		return nil, nil, err
	}
	if lr.l, err = newLayers(b.rec, m, b.path("layers")); err != nil {
		return nil, nil, err
	}
	if err := serveSession(lr.traced, create, steps[:tracedSteps], want[:tracedSteps], first, b.path("traced"), lr.l); err != nil {
		return nil, nil, err
	}
	if err := lr.restarts(b, image, restartFirst, nil, nil); err != nil {
		return nil, nil, err
	}
	b.stage("traced")
	return r, lr, nil
}

// serveSession creates a session, answers its first round, then times
// steps as one phase: from a forced GC to the last step's snapshot
// committed. Live heap is read after the phase, with the ledger alive.
func serveSession(r *results, create session, steps []step, want []summary, first summary, dir string, l *layers) error {
	base := liveHeapMB()
	s, err := startServer(dir)
	if err != nil {
		return err
	}
	path, ok := createSession(s, r, create.body)
	if !ok {
		return s.close(0)
	}
	if c := round(s, r, "create", path, first); !c.ok() {
		return s.close(0)
	}
	h0 := liveHeapMB()
	ph := beginPhase(r)
	cmds := runSteps(s, r, path, steps, want, 1, l)
	snaps := uint64(cmds / snapshotEvery)
	if l != nil {
		snaps += uint64(len(l.snapshotMs))
	}
	if err := s.waitSnapshots(snaps); err != nil {
		r.fail("snapshot", err)
	}
	ph.end(r, len(steps))
	h1 := liveHeapMB()
	r.heap = append(r.heap, h1-base)
	r.ledgerKB = append(r.ledgerKB, (h1-h0)*1024/float64(len(steps)))
	return s.close(snaps)
}

func runRestart(b *bench) (*results, *layerReport, error) {
	specs, pop, err := paperPopulation(b.seed, restartClass)
	if err != nil {
		return nil, nil, err
	}
	create := newSession(specs, pop.Part.M, pop.Part.Delta, pop.Mu, b.shards)
	g := newScriptGen(b.seed, specs)
	script := genSteps(g.next, scriptSteps)
	cont := genSteps(g.next, contSteps)
	// Design queries are not journaled: the script, served off the clock,
	// sends none.
	for i := range script {
		script[i].design = nil
	}
	if err := expectContracts(create, cont); err != nil {
		return nil, nil, err
	}
	b.stage("inputs")

	first, scriptWant, m, err := reference(create, script)
	if err != nil {
		return nil, nil, fmt.Errorf("reference: %w", err)
	}
	if err := m.step(context.Background()); err != nil {
		return nil, nil, err
	}
	restartFirst := m.last
	contWant, err := m.run(cont)
	if err != nil {
		return nil, nil, fmt.Errorf("reference: %w", err)
	}
	b.stage("reference")

	r := newResults()
	image := b.path("image")
	pre, err := writeScript(b.path("script"), image, r, create, script, scriptWant, first)
	if err != nil {
		return nil, nil, err
	}
	b.stage("script")
	if err := setupPhase(b.path("setup"), "", r, create.body, first); err != nil {
		return nil, nil, err
	}
	b.stage("setup")
	start := time.Now()
	for k := 0; ; k++ {
		t0 := time.Now()
		var check *ledgerHead
		if k == 0 {
			check = &pre
		}
		if err := restartSession(r, image, b.path(fmt.Sprintf("op-%d", k)), restartFirst, cont, contWant, check, nil, 0); err != nil {
			return nil, nil, err
		}
		if k+1 >= minRestarts && time.Since(start)+time.Since(t0) > b.budget {
			break
		}
	}
	b.stage("restarts")
	if b.rec == nil {
		return r, nil, nil
	}

	// The traced phase needs a mirror at the crash point plus the first
	// round: replay the script into a fresh one.
	lr := &layerReport{traced: newResults(), rec: b.rec}
	if _, _, m, err = reference(create, script); err == nil {
		err = m.step(context.Background())
	}
	if err != nil {
		return nil, nil, err
	}
	if lr.l, err = newLayers(b.rec, m, b.path("layers")); err != nil {
		return nil, nil, err
	}
	if err := lr.restarts(b, image, restartFirst, cont, contWant); err != nil {
		return nil, nil, err
	}
	b.stage("traced")
	return r, lr, nil
}

// ledgerHead stands for the ledger before the crash: the length and
// SHA-256 of its GET …/rounds body up to the closing bracket. The body
// itself is not kept, so it never counts in a heap reading.
type ledgerHead struct {
	n   int
	sum [sha256.Size]byte
}

func headOf(body []byte) ledgerHead {
	head := bytes.TrimSuffix(bytes.TrimSpace(body), []byte("]"))
	return ledgerHead{n: len(head), sum: sha256.Sum256(head)}
}

// writeScript serves the restart workload's script off the clock, waits
// for its snapshot to commit, and leaves the journal in image. It returns
// the head of the session's GET …/rounds body: the ledger before the
// crash.
func writeScript(dir, image string, r *results, create session, script []step, want []summary, first summary) (ledgerHead, error) {
	sr := newResults()
	defer r.absorb(sr)
	s, err := startServer(dir)
	if err != nil {
		return ledgerHead{}, err
	}
	path, ok := createSession(s, sr, create.body)
	if !ok {
		return ledgerHead{}, s.close(0)
	}
	if c := round(s, sr, "create", path, first); !c.ok() {
		return ledgerHead{}, s.close(0)
	}
	cmds := runSteps(s, sr, path, script, want, 1, nil)
	if err := s.waitSnapshots(uint64(cmds / snapshotEvery)); err != nil {
		return ledgerHead{}, err
	}
	c := s.do("GET", path+"/rounds", nil)
	if !c.ok() {
		sr.fail("verify", fmt.Errorf("ledger before the crash: status %d", c.code))
	}
	pre := headOf(c.body)
	if err := s.stop(0); err != nil {
		return ledgerHead{}, err
	}
	if err := copyDir(dir, image); err != nil {
		return ledgerHead{}, err
	}
	return pre, os.RemoveAll(dir)
}

// restartSession is one restart op on the crash image followed by the
// continuation steps, timed as one phase. With pre set, the recovered
// ledger must extend the ledger before the crash byte for byte: one
// op a run checks it, since the listing of a ~600-round, 2k-agent ledger
// costs seconds and every op's rounds are checked against the mirror.
func restartSession(r *results, image, dir string, first summary, cont []step, want []summary, pre *ledgerHead, l *layers, trace uint64) error {
	base := liveHeapMB()
	t := readCPUTimes()
	s, path, d, err := restartOp(image, dir, r, first, l.tr(), trace)
	if err != nil {
		return err
	}
	if path == "" {
		return s.close(0)
	}
	r.restart = append(r.restart, d*(1-stolen(t, readCPUTimes())))
	h0 := liveHeapMB()
	ph := beginPhase(r)
	runSteps(s, r, path, cont, want, 0, l)
	ph.end(r, len(cont))
	h1 := liveHeapMB()
	r.heap = append(r.heap, h1-base)
	r.ledgerKB = append(r.ledgerKB, (h1-h0)*1024/float64(len(cont)))
	var snaps uint64
	if l != nil {
		snaps = uint64(len(l.snapshotMs))
	}
	if pre != nil {
		r.check(extendsLedger(s.do("GET", path+"/rounds", nil), *pre))
	}
	return s.close(snaps)
}

// extendsLedger checks that a GET …/rounds answer starts with every round
// of the ledger before the crash, byte for byte, followed by more rounds.
func extendsLedger(c call, pre ledgerHead) error {
	if !c.ok() {
		return fmt.Errorf("recovered ledger: status %d", c.code)
	}
	if len(c.body) <= pre.n || c.body[pre.n] != ',' || sha256.Sum256(c.body[:pre.n]) != pre.sum {
		return fmt.Errorf("recovered ledger (%d bytes) does not extend the ledger before the crash (%d bytes)", len(c.body), pre.n+1)
	}
	return nil
}

// layerReport is a traced phase's output: its end-to-end results and the
// per-layer timings.
type layerReport struct {
	traced *results
	rec    *recorder
	l      *layers
}

// restarts times tracedOps restarts of image: the journal's Recover alone
// on one copy, then a traced restart op on another. With cont set, the
// last op serves the continuation through the layer timing.
func (lr *layerReport) restarts(b *bench, image string, first summary, cont []step, want []summary) error {
	for i := 0; i < tracedOps; i++ {
		dir := b.path(fmt.Sprintf("journal-%d", i))
		if err := copyDir(image, dir); err != nil {
			return err
		}
		st, err := journal.Open(dir, journal.Options{})
		if err != nil {
			return err
		}
		runtime.GC()
		var recs []journal.RecoveredSession
		d := lr.rec.timed("journal.recover", lr.rec.newTrace(), 0, func() { recs, _, err = st.Recover() })
		if err != nil || len(recs) != 1 {
			return fmt.Errorf("journal recover: %d sessions, %v", len(recs), err)
		}
		lr.l.recoverMs = append(lr.l.recoverMs, ms(d))
		lr.l.replayedCmds = append(lr.l.replayedCmds, float64(len(recs[0].Tail)))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}

		trace := lr.rec.newTrace()
		opDir := b.path(fmt.Sprintf("traced-op-%d", i))
		if cont != nil && i == tracedOps-1 {
			if err := restartSession(lr.traced, image, opDir, first, cont, want, nil, lr.l, trace); err != nil {
				return err
			}
		} else {
			t := readCPUTimes()
			s, path, d, err := restartOp(image, opDir, lr.traced, first, lr.rec, trace)
			if err != nil {
				return err
			}
			if path != "" {
				lr.traced.restart = append(lr.traced.restart, d*(1-stolen(t, readCPUTimes())))
			}
			if err := s.close(0); err != nil {
				return err
			}
		}
		var restart, round float64
		for _, s := range lr.rec.spans {
			switch {
			case s.Trace != trace:
			case s.Name == "restart":
				restart = s.ms()
			case s.Name == "server.round" && s.Parent != 0 && lr.rec.spans[s.Parent-1].Name == "restart":
				round = s.ms()
			}
		}
		if restart > 0 && round > 0 {
			lr.l.replayMs = append(lr.l.replayMs, restart-ms(d)-round)
		}
	}
	return nil
}

// metrics derives the per-layer metrics: the traced phase's layer timings,
// and from the untraced phases r, the runtime counters and ledger growth.
func (lr *layerReport) metrics(r *results) metricList {
	l := lr.l
	med := func(name string) float64 { return zeroIfNaN(median(lr.rec.durations(name))) }
	per := func(n uint64) float64 { return float64(n) / float64(max(1, l.steps)) }
	ratio := func(hit, miss uint64) float64 { return float64(hit) / float64(max(1, hit+miss)) }
	steps := float64(max(1, r.steps))
	return metricList{
		{name: "server.validate_ms", unit: "ms", value: med("server.validate")},
		{name: "server.decode_ms", unit: "ms", value: median(l.decode)},
		{name: "server.encode_ms", unit: "ms", value: median(l.encode)},
		{name: "server.req_kb", unit: "kB", value: median(l.reqKB)},
		{name: "server.resp_kb", unit: "kB", value: median(l.respKB)},
		{name: "server.self_ms", unit: "ms", value: median(l.self)},
		{name: "server.ledger_kb_per_round", unit: "kB", value: median(r.ledgerKB)},
		{name: "server.replay_ms", unit: "ms", value: median(l.replayMs)},
		{name: "engine.step_ms", unit: "ms", value: med("engine.step")},
		{name: "engine.cache_hit_ratio", unit: "ratio", value: ratio(l.hits, l.misses)},
		{name: "engine.memo_hit_ratio", unit: "ratio", value: ratio(l.memoHit, l.memoMiss)},
		{name: "engine.full_rebuilds", unit: "count", value: float64(l.fullRebuilds)},
		{name: "engine.shards_rebuilt_per_step", unit: "count", value: per(l.rebuiltShards)},
		{name: "core.designs_per_step", unit: "count", value: per(l.misses)},
		{name: "core.design_us", unit: "us", value: 1000 * med("core.design")},
		{name: "core.scalar_fallbacks", unit: "count", value: float64(l.scratch.Fallbacks())},
		{name: "worker.best_responses_per_step", unit: "count", value: per(l.memoMiss)},
		{name: "worker.best_response_us", unit: "us", value: 1000 * med("worker.best_response")},
		{name: "journal.append_us", unit: "us", value: 1000 * med("journal.append")},
		{name: "journal.bytes_per_cmd", unit: "B", value: l.bytesPerCmd()},
		{name: "journal.snapshot_ms", unit: "ms", value: median(l.snapshotMs)},
		{name: "journal.snapshot_mb", unit: "MB", value: median(l.snapshotMB)},
		{name: "journal.recover_ms", unit: "ms", value: median(l.recoverMs)},
		{name: "journal.replayed_cmds", unit: "count", value: median(l.replayedCmds)},
		{name: "runtime.gc_cycles_per_step", unit: "count", value: float64(r.rt.gcCycles) / steps},
		{name: "runtime.gc_cpu_frac", unit: "ratio", value: r.rt.gcCPU / r.rt.totalCPU},
		{name: "runtime.alloc_kb_per_step", unit: "kB", value: float64(r.rt.allocBytes) / 1024 / steps},
		{name: "runtime.mallocs_per_step", unit: "count", value: float64(r.rt.mallocs) / steps},
	}
}

func zeroIfNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
