package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dyncontract/internal/contract"
	"dyncontract/internal/effort"
	"dyncontract/internal/engine"
	"dyncontract/internal/journal"
	"dyncontract/internal/spans"
	"dyncontract/internal/worker"
)

// errDraining is the reply queued work receives when the session shuts
// down before reaching it; handlers map it to 503.
var errDraining = errors.New("server: session draining")

// cmdKind discriminates the single-writer loop's commands.
type cmdKind int

const (
	cmdRound cmdKind = iota
	cmdDrift
	cmdSnapshot
)

// command is one unit of serialized session work: advance a round or apply
// a drift. Both run through the same bounded queue and the same writer
// goroutine, so their interleaving is a total order — the ledger a session
// produces is exactly the ledger a bare engine produces for that order.
type command struct {
	ctx   context.Context
	kind  cmdKind
	round AdvanceRoundRequest
	drift *DriftRequest
	reply chan cmdReply // buffered(1): the writer never blocks on a gone waiter

	// enq is when submit accepted the command; the writer turns it into
	// the queue-wait observation on dequeue.
	enq time.Time
	// span is the request's root span (nil when untraced); qspan is its
	// "session.queue" child, open from submit until the writer dequeues.
	span  *spans.Span
	qspan *spans.Span
}

// cmdReply carries the writer's answer; code is the HTTP status for err.
type cmdReply struct {
	round RoundJSON
	drift DriftResponse
	snap  SnapshotResponse
	err   error
	code  int
}

// designCall is one design-only query waiting to ride a micro-batch.
type designCall struct {
	ctx     context.Context
	agentID string
	req     engine.DesignRequest
	reply   chan designReply // buffered(1)
}

type designReply struct {
	contract *contract.PiecewiseLinear
	batch    int
	err      error
	code     int
}

// captureObserver records the round a Step just completed and, when
// asked, the round's contract map. It lives on the writer goroutine only.
// last.Outcomes aliases the engine's reusable backing array: it is valid
// until the next Step, which is long enough for runRound to add it to the
// session's roundLog (which keeps its own copy of what changed).
type captureObserver struct {
	wantContracts bool
	contracts     map[string]*contract.PiecewiseLinear
	last          engine.Round
}

var _ engine.Observer = (*captureObserver)(nil)

func (c *captureObserver) OnContracts(_ int, m map[string]*contract.PiecewiseLinear) {
	if !c.wantContracts {
		c.contracts = nil
		return
	}
	// The engine's map is reused across rounds; copy to retain.
	c.contracts = make(map[string]*contract.PiecewiseLinear, len(m))
	for id, con := range m {
		c.contracts[id] = con
	}
}

func (c *captureObserver) OnOutcome(int, engine.AgentOutcome) {}

func (c *captureObserver) OnRoundEnd(r engine.Round) error {
	c.last = r
	return nil
}

// session is one long-lived engine behind the API: population, policy,
// cache, ledger, and the two goroutines that own all mutation — the
// single-writer command loop (rounds + drift) and the design batcher.
type session struct {
	id         string
	name       string
	policyName string
	srv        *Server

	pop      *engine.Population
	eng      *engine.Engine
	capture  *captureObserver
	designer *engine.Designer // shares the round loop's Cache

	// mu guards the population's mutable parameters (weights, β, ω, ψ —
	// written only by drift on the writer goroutine) against concurrent
	// reads from design-query resolution on request goroutines. Engine
	// reads during Step need no lock: Step and drift share the writer.
	mu sync.Mutex

	// ledgerMu guards ledger (writer adds, GET handlers read).
	ledgerMu sync.RWMutex
	ledger   roundLog

	cmds     chan command
	designCh chan *designCall
	quit     chan struct{}
	done     chan struct{} // writer exited
	batchDn  chan struct{} // batcher exited

	inFlight atomic.Int64
	draining atomic.Bool

	// jw is the session's write-ahead journal; nil when durability is off.
	// Append, Flush, and BeginSnapshot belong to the writer goroutine.
	jw *journal.Writer
	// req is the create request the session was built from, retained so
	// snapshots can store the policy knobs and name verbatim.
	req *CreateSessionRequest
	// sinceSnap counts successful commands since the last snapshot
	// (writer goroutine only); Config.SnapshotEvery triggers on it.
	sinceSnap int
	// snapBusy is set while a snapshot commit runs in the background.
	snapBusy atomic.Bool
	// recovered marks a session restored from the journal at boot;
	// replayed is how many command records its replay re-executed.
	recovered bool
	replayed  int
}

// start launches the session's writer and batcher goroutines.
func (s *session) start() {
	go s.writerLoop()
	go s.batcherLoop()
}

// close begins drain: no new admissions, queued work answered 503, the
// command or batch currently executing runs to completion.
func (s *session) close() {
	if s.draining.CompareAndSwap(false, true) {
		close(s.quit)
	}
}

// admit reserves an in-flight slot, or reports why it cannot.
func (s *session) admit() (release func(), code int, err error) {
	if s.draining.Load() {
		return nil, http.StatusServiceUnavailable, errDraining
	}
	m := s.srv.metrics
	if n := s.inFlight.Add(1); n > int64(s.srv.cfg.MaxInFlight) {
		s.inFlight.Add(-1)
		m.reject()
		return nil, http.StatusTooManyRequests,
			fmt.Errorf("session %s: %d requests in flight (limit %d)", s.id, n-1, s.srv.cfg.MaxInFlight)
	}
	m.addInFlight(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			s.inFlight.Add(-1)
			m.addInFlight(-1)
		})
	}, 0, nil
}

// submit enqueues a command without blocking; a full queue is backpressure.
func (s *session) submit(cmd command) (code int, err error) {
	cmd.enq = time.Now()
	if parent := spans.FromContext(cmd.ctx); parent != nil {
		cmd.span = parent
		cmd.qspan = parent.StartChild("session.queue")
	}
	select {
	case s.cmds <- cmd:
		s.srv.metrics.addRoundQueue(1)
		s.srv.metrics.addSessionQueue(1)
		return 0, nil
	default:
		cmd.qspan.End() // rejected, never waited
		s.srv.metrics.reject()
		return http.StatusTooManyRequests, fmt.Errorf("session %s: command queue full", s.id)
	}
}

// submitDesign enqueues a design call without blocking.
func (s *session) submitDesign(dc *designCall) (code int, err error) {
	select {
	case s.designCh <- dc:
		s.srv.metrics.addDesignQueue(1)
		return 0, nil
	default:
		s.srv.metrics.reject()
		return http.StatusTooManyRequests, fmt.Errorf("session %s: design queue full", s.id)
	}
}

// writerLoop is the session's single writer: every round advance and every
// drift flows through here, one at a time, in arrival order.
func (s *session) writerLoop() {
	defer func() {
		if s.jw != nil {
			if err := s.jw.Close(); err != nil && s.srv.logger != nil {
				s.srv.logger.Error("journal close failed", "session", s.id, "err", err)
			}
		}
		close(s.done)
	}()
	for {
		// Quit wins over queued work: once drain begins, commands still in
		// the queue were never started and are answered 503 — only the
		// command already executing when quit closed runs to completion.
		select {
		case <-s.quit:
			s.drainCmds()
			return
		default:
		}
		select {
		case <-s.quit:
			s.drainCmds()
			return
		case cmd := <-s.cmds:
			s.srv.metrics.addRoundQueue(-1)
			s.srv.metrics.addSessionQueue(-1)
			cmd.qspan.End()
			ctx := cmd.ctx
			var exec *spans.Span
			var waitLabel string
			if cmd.span != nil {
				waitLabel = cmd.span.TraceID().String()
				exec = cmd.span.StartChild("session.execute")
				ctx = spans.ContextWith(ctx, exec)
			}
			s.srv.metrics.queueWait(time.Since(cmd.enq).Seconds(), waitLabel)
			// Write-ahead: the command is journaled before it executes, so
			// the log is a superset of the executed history; replay skips
			// the over-approximation via abort records and deterministic
			// re-execution.
			switch cmd.kind {
			case cmdRound:
				exec.SetAttr("kind", "round")
				rep, ok := s.journalCmd(journal.KindRound, cmd.round)
				if ok {
					rep = s.runRound(ctx, cmd.round)
				}
				cmd.reply <- rep
				s.afterCommand(ok, rep.err)
			case cmdDrift:
				exec.SetAttr("kind", "drift")
				rep, ok := s.journalCmd(journal.KindDrift, cmd.drift)
				if ok {
					rep = s.runDrift(cmd.drift)
				}
				cmd.reply <- rep
				s.afterCommand(ok, rep.err)
			case cmdSnapshot:
				exec.SetAttr("kind", "snapshot")
				s.startSnapshot(cmd.reply)
			}
			exec.End()
		}
	}
}

// drainCmds answers everything still queued with 503.
func (s *session) drainCmds() {
	for {
		select {
		case cmd := <-s.cmds:
			s.srv.metrics.addRoundQueue(-1)
			s.srv.metrics.addSessionQueue(-1)
			cmd.qspan.End()
			cmd.reply <- cmdReply{err: errDraining, code: http.StatusServiceUnavailable}
		default:
			return
		}
	}
}

// runRound advances the engine one round on the writer goroutine and
// appends the completed round to the ledger.
func (s *session) runRound(ctx context.Context, req AdvanceRoundRequest) cmdReply {
	if err := ctx.Err(); err != nil {
		return cmdReply{err: err, code: statusForCtx(err)}
	}
	s.capture.wantContracts = req.IncludeContracts
	err := s.eng.Step(ctx)
	if err != nil && !errors.Is(err, engine.ErrStop) {
		// A failed Step leaves no trace: nothing to roll back, safe to retry.
		return cmdReply{err: err, code: statusForCtx(err)}
	}
	round := s.capture.last
	s.ledgerMu.Lock()
	s.ledger.add(round)
	s.ledgerMu.Unlock()
	s.srv.metrics.roundDone()
	// A declared drift scope that escalated to a full view rebuild means
	// the declarations did not hold against the retained views — worth a
	// warning, because the client paid cold-round latency for what it
	// declared as a small drift.
	if declared, applied := s.eng.LastDriftClass(); declared == "viewStructural" && applied == "viewFull" {
		if lg := s.srv.logger; lg != nil {
			lg.LogAttrs(ctx, slog.LevelWarn, "drift scope escalated",
				slog.String("session", s.id),
				slog.Int("round", round.Index),
				slog.String("declared", declared),
				slog.String("applied", applied),
			)
		}
	}
	out := roundJSON(round, req.IncludeOutcomes)
	if req.IncludeContracts {
		out.Contracts = s.capture.contracts
		s.capture.contracts = nil
	}
	return cmdReply{round: out}
}

// runDrift applies the request's mutations atomically: structural adds
// and removes first, then the scalar mutations, all under the population
// lock, then a full validation; any failure reverts every mutation in
// reverse order and leaves the session exactly as it was.
func (s *session) runDrift(req *DriftRequest) cmdReply {
	s.mu.Lock()
	defer s.mu.Unlock()

	byID := make(map[string]*worker.Agent, len(s.pop.Agents))
	for _, a := range s.pop.Agents {
		byID[a.ID] = a
	}
	var undo []func()
	fail := func(err error) cmdReply {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
		return cmdReply{err: err, code: http.StatusBadRequest}
	}

	// Structural mutations. Adds append (the population's slice order is
	// presentation-free — engines sort by ID); removes splice their exact
	// position so an undo restores the original slice byte for byte.
	addIDs := make([]string, 0, len(req.Add))
	for i := range req.Add {
		spec := &req.Add[i]
		if _, exists := byID[spec.ID]; exists {
			return fail(fmt.Errorf("add %q: agent already in session: %w", spec.ID, ErrBadRequest))
		}
		a, err := spec.Agent()
		if err != nil {
			return fail(err)
		}
		s.pop.Agents = append(s.pop.Agents, a)
		s.pop.Weights[a.ID] = spec.Weight
		s.pop.MaliceProb[a.ID] = spec.Malice
		byID[a.ID] = a
		id := a.ID
		undo = append(undo, func() {
			s.pop.Agents = s.pop.Agents[:len(s.pop.Agents)-1]
			delete(s.pop.Weights, id)
			delete(s.pop.MaliceProb, id)
			delete(byID, id)
		})
		addIDs = append(addIDs, id)
	}
	added := make(map[string]struct{}, len(addIDs))
	for _, id := range addIDs {
		added[id] = struct{}{}
	}
	removeIDs := make([]string, 0, len(req.Remove))
	for _, id := range req.Remove {
		if _, both := added[id]; both {
			return fail(fmt.Errorf("agent %q both added and removed: %w", id, ErrBadRequest))
		}
		if _, exists := byID[id]; !exists {
			return fail(fmt.Errorf("remove %q: unknown agent: %w", id, ErrBadRequest))
		}
		idx := -1
		for i, a := range s.pop.Agents {
			if a.ID == id {
				idx = i
				break
			}
		}
		a := s.pop.Agents[idx]
		w := s.pop.Weights[id]
		mal, hadMal := s.pop.MaliceProb[id]
		s.pop.Agents = append(s.pop.Agents[:idx], s.pop.Agents[idx+1:]...)
		delete(s.pop.Weights, id)
		delete(s.pop.MaliceProb, id)
		delete(byID, id)
		gone, at := a, idx
		undo = append(undo, func() {
			s.pop.Agents = append(s.pop.Agents, nil)
			copy(s.pop.Agents[at+1:], s.pop.Agents[at:])
			s.pop.Agents[at] = gone
			s.pop.Weights[gone.ID] = w
			if hadMal {
				s.pop.MaliceProb[gone.ID] = mal
			}
			byID[gone.ID] = gone
		})
		removeIDs = append(removeIDs, id)
	}
	// touched collects the distinct agent IDs this drift mutates, declared
	// through Population.Touch only after validation passes — a rejected
	// drift reverts every mutation and leaves the drift scope (and with it
	// every engine view) exactly as it was.
	touched := make(map[string]struct{}, len(req.Weights)+len(req.Beta)+len(req.Omega)+len(req.Psi))
	updated := 0
	for id, w := range req.Weights {
		old, ok := s.pop.Weights[id]
		if !ok {
			return fail(fmt.Errorf("weight for unknown agent %q: %w", id, ErrBadRequest))
		}
		s.pop.Weights[id] = w
		undo = append(undo, func() { s.pop.Weights[id] = old })
		touched[id] = struct{}{}
		updated++
	}
	for id, b := range req.Beta {
		a, ok := byID[id]
		if !ok {
			return fail(fmt.Errorf("beta for unknown agent %q: %w", id, ErrBadRequest))
		}
		old := a.Beta
		a.Beta = b
		undo = append(undo, func() { a.Beta = old })
		touched[id] = struct{}{}
		updated++
	}
	for id, o := range req.Omega {
		a, ok := byID[id]
		if !ok {
			return fail(fmt.Errorf("omega for unknown agent %q: %w", id, ErrBadRequest))
		}
		old := a.Omega
		a.Omega = o
		undo = append(undo, func() { a.Omega = old })
		touched[id] = struct{}{}
		updated++
	}
	for id, p := range req.Psi {
		a, ok := byID[id]
		if !ok {
			return fail(fmt.Errorf("psi for unknown agent %q: %w", id, ErrBadRequest))
		}
		old := a.Psi
		a.Psi = effort.Quadratic{R2: p.R2, R1: p.R1, R0: p.R0}
		undo = append(undo, func() { a.Psi = old })
		touched[id] = struct{}{}
		updated++
	}
	if err := s.pop.Validate(); err != nil {
		return fail(err)
	}
	// Declare what moved, only now that validation passed — a rejected
	// drift reverts every mutation and leaves the drift scope (and with it
	// every engine view) exactly as it was. Scalar mutations Touch exactly
	// the mutated agents; adds and removes declare a structural scope
	// (TouchJoin/TouchLeave), so a sharded engine splices only the shards
	// owning those agents instead of rebuilding every view. The design
	// cache needs nothing — a weight change re-picks from the cached menu,
	// a mutated design key simply misses and rebuilds, and a leaver's
	// orphaned key is refcount-evicted.
	ids := make([]string, 0, len(touched))
	for id := range touched {
		ids = append(ids, id)
	}
	s.pop.Touch(ids...)
	s.pop.TouchJoin(addIDs...)
	s.pop.TouchLeave(removeIDs...)
	s.srv.metrics.driftDone()
	s.ledgerMu.RLock()
	rounds := s.ledger.len()
	s.ledgerMu.RUnlock()
	return cmdReply{drift: DriftResponse{
		Updated: updated,
		Touched: len(ids),
		Joined:  len(addIDs),
		Left:    len(removeIDs),
		Rounds:  rounds,
	}}
}

// batcherLoop coalesces design-only queries into micro-batches: the first
// waiting call opens a window (Config.BatchWindow); the batch executes when
// the window closes or Config.BatchMax calls have gathered, whichever is
// first. One engine pass serves the whole batch, and the session's design
// cache — shared with the round loop — makes warm queries pure lookups.
func (s *session) batcherLoop() {
	defer close(s.batchDn)
	var (
		pending []*designCall
		timer   *time.Timer
		expired <-chan time.Time
	)
	stopTimer := func() {
		if timer != nil {
			timer.Stop()
			timer = nil
			expired = nil
		}
	}
	flush := func() {
		stopTimer()
		if len(pending) > 0 {
			s.runBatch(pending)
			pending = nil
		}
	}
	drain := func() {
		// Gathered calls were admitted: serve them. Anything still in the
		// queue behind them was not started — 503.
		flush()
		for {
			select {
			case dc := <-s.designCh:
				s.srv.metrics.addDesignQueue(-1)
				dc.reply <- designReply{err: errDraining, code: http.StatusServiceUnavailable}
			default:
				return
			}
		}
	}
	for {
		select {
		case <-s.quit:
			drain()
			return
		default:
		}
		select {
		case <-s.quit:
			drain()
			return
		case dc := <-s.designCh:
			s.srv.metrics.addDesignQueue(-1)
			pending = append(pending, dc)
			if len(pending) >= s.srv.cfg.BatchMax {
				flush()
				continue
			}
			if timer == nil {
				timer = time.NewTimer(s.srv.cfg.BatchWindow)
				expired = timer.C
			}
		case <-expired:
			timer = nil
			expired = nil
			flush()
		}
	}
}

// runBatch executes one micro-batch through Designer.DesignBatch. Calls
// whose context died while waiting are answered without solving; the rest
// share one engine pass (and, within it, one solve per distinct
// fingerprint).
func (s *session) runBatch(calls []*designCall) {
	live := calls[:0]
	for _, dc := range calls {
		if err := dc.ctx.Err(); err != nil {
			dc.reply <- designReply{err: err, code: statusForCtx(err)}
			continue
		}
		live = append(live, dc)
	}
	if len(live) == 0 {
		return
	}
	reqs := make([]engine.DesignRequest, len(live))
	for i, dc := range live {
		reqs[i] = dc.req
	}
	// The batch's own work lives in a carrier trace of its own (it serves
	// many callers, so it belongs to none of their traces); each traced
	// caller gets a "session.design" span in its trace linked to the
	// carrier by batch.trace/batch.span attributes.
	bspan := s.srv.tracer.Root("design.batch")
	bspan.SetAttr("session", s.id)
	bspan.SetInt("batch.size", int64(len(live)))
	var links []*spans.Span
	if bspan != nil {
		bTrace, bSpan := bspan.TraceID().String(), bspan.ID().String()
		for _, dc := range live {
			if caller := spans.FromContext(dc.ctx); caller != nil {
				dsp := caller.StartChild("session.design")
				dsp.SetAttr("agent", dc.agentID)
				dsp.SetAttr("batch.trace", bTrace)
				dsp.SetAttr("batch.span", bSpan)
				links = append(links, dsp)
			}
		}
	}
	endSpans := func() {
		for _, dsp := range links {
			dsp.End()
		}
		bspan.End()
	}
	// The batch outlives any single caller's deadline; it runs under the
	// server's lifetime context so one impatient client cannot cancel its
	// batchmates' work.
	ctx := spans.ContextWith(s.srv.baseCtx, bspan)
	contracts, err := s.designer.DesignBatch(ctx, s.pop.Part, s.pop.Mu, reqs)
	endSpans()
	if err != nil {
		for _, dc := range live {
			dc.reply <- designReply{err: err, code: http.StatusInternalServerError}
		}
		return
	}
	s.srv.metrics.batchDone(len(live))
	for i, dc := range live {
		dc.reply <- designReply{contract: contracts[i], batch: len(live)}
	}
}

// resolveDesign turns a validated DesignQueryRequest into an engine
// request. Session agents are copied under the population lock so the
// solver never reads an agent a concurrent drift is writing; inline agents
// are validated against the session's partition.
func (s *session) resolveDesign(req *DesignQueryRequest) (engine.DesignRequest, string, error) {
	if req.AgentID != "" {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, a := range s.pop.Agents {
			if a.ID == req.AgentID {
				cp := *a
				return engine.DesignRequest{Agent: &cp, W: s.pop.Weights[a.ID]}, a.ID, nil
			}
		}
		return engine.DesignRequest{}, "", fmt.Errorf("unknown agent %q: %w", req.AgentID, ErrBadRequest)
	}
	a, err := req.Agent.Agent()
	if err != nil {
		return engine.DesignRequest{}, "", err
	}
	if err := a.Validate(s.pop.Part.YMax()); err != nil {
		return engine.DesignRequest{}, "", fmt.Errorf("%v: %w", err, ErrBadRequest)
	}
	return engine.DesignRequest{Agent: a, W: req.Agent.Weight}, a.ID, nil
}

// info snapshots the session for GET /v1/sessions/{id}.
func (s *session) info() SessionInfo {
	s.ledgerMu.RLock()
	rounds, total := s.ledger.len(), s.ledger.total
	s.ledgerMu.RUnlock()
	s.mu.Lock()
	agents := len(s.pop.Agents)
	s.mu.Unlock()
	cs := s.eng.CacheStats()
	info := SessionInfo{
		ID:           s.id,
		Name:         s.name,
		Policy:       s.policyName,
		Agents:       agents,
		Rounds:       rounds,
		TotalUtility: total,
		Cache:        CacheStatsJSON{Hits: cs.Hits, Misses: cs.Misses, Entries: cs.Entries},
		Draining:     s.draining.Load(),
	}
	if s.jw != nil {
		info.Journal = &JournalInfo{
			Seq:       s.jw.Seq(),
			Recovered: s.recovered,
			Replayed:  s.replayed,
		}
	}
	return info
}

// rounds snapshots the ledger as wire rounds (outcomes always included —
// this is the audit endpoint determinism checks diff).
func (s *session) rounds() []RoundJSON {
	s.ledgerMu.RLock()
	defer s.ledgerMu.RUnlock()
	out := make([]RoundJSON, s.ledger.len())
	for i := range out {
		out[i] = roundJSON(s.ledger.round(i), true)
	}
	return out
}

// statusForCtx maps context errors to HTTP: a deadline is a timeout, a
// cancellation means the client went away (the exact code is moot — 499 is
// nginx lore, 503 is honest about not having served).
func statusForCtx(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}
