package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
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
	// body is the drift request as received: the drift's journal record.
	body  []byte
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

// captureObserver records the round a Step just completed and, when
// asked, the round's contract map. It lives on the writer goroutine only.
// last.Outcomes aliases the engine's reusable backing array: it is valid
// until the next Step, which is long enough for runRound to add it to the
// session's roundLog (which keeps its own copy of what changed). It wants
// the contract map only in an include_contracts round, so the engine
// keeps no per-ID map for a session whose rounds never ask.
type captureObserver struct {
	wantContracts bool
	contracts     map[string]*contract.PiecewiseLinear
	last          engine.Round
}

var (
	_ engine.Observer        = (*captureObserver)(nil)
	_ engine.ContractsWanter = (*captureObserver)(nil)
)

func (c *captureObserver) WantsContracts(int) bool { return c.wantContracts }

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

func (c *captureObserver) OnRoundEnd(r engine.Round) error {
	c.last = r
	return nil
}

// session is one long-lived engine behind the API: population, policy,
// cache, ledger, and the single-writer command loop (rounds + drift) that
// owns all mutation. Design queries run on their request goroutines.
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
	// listHook, when set, runs after rounds builds each listed round
	// (tests hold a listing mid-way with it).
	listHook func(i int)

	cmds chan command
	quit chan struct{}
	done chan struct{} // writer exited

	inFlight atomic.Int64
	draining atomic.Bool

	// jw is the session's write-ahead journal; nil when durability is off.
	// Append, Flush, and BeginSnapshot belong to the writer goroutine.
	jw *journal.Writer
	// req is the create request the session was built from, without its
	// agents, retained so snapshots can store the policy knobs and name
	// verbatim.
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

// start launches the session's writer goroutine.
func (s *session) start() {
	go s.writerLoop()
}

// close begins drain: no new admissions, queued commands answered 503, the
// command currently executing runs to completion.
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
				rep, ok := s.journalCmd(&cmd)
				if ok {
					rep = s.runRound(ctx, cmd.round)
				}
				cmd.reply <- rep
				s.afterCommand(ok, rep.err)
			case cmdDrift:
				exec.SetAttr("kind", "drift")
				rep, ok := s.journalCmd(&cmd)
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
// lock, then a validation scoped to what the drift changed; any failure
// reverts every mutation in reverse order and leaves the session exactly
// as it was.
func (s *session) runDrift(req *DriftRequest) cmdReply {
	s.mu.Lock()
	defer s.mu.Unlock()

	var undo []func()
	fail := func(err error) cmdReply {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
		return cmdReply{err: err, code: http.StatusBadRequest}
	}

	// Structural mutations go through Population.Add and Remove: each
	// keeps the ID index current, declares its own join or leave (so the
	// engine splices exactly those agents into its view), and
	// returns an undo that also retracts the declaration. scope collects
	// the agents the drift changed, for the scoped validation.
	scope := make([]*worker.Agent, 0, len(req.Add)+len(req.Weights)+len(req.Beta)+len(req.Omega)+len(req.Psi))
	var added map[string]struct{}
	if len(req.Add) > 0 && len(req.Remove) > 0 {
		added = make(map[string]struct{}, len(req.Add))
	}
	for i := range req.Add {
		spec := &req.Add[i]
		a, err := spec.Agent()
		if err != nil {
			return fail(err)
		}
		u, err := s.pop.Add(a, spec.Weight, spec.Malice)
		if err != nil {
			return fail(fmt.Errorf("add: %v: %w", err, ErrBadRequest))
		}
		undo = append(undo, u)
		scope = append(scope, a)
		if added != nil {
			added[a.ID] = struct{}{}
		}
	}
	for _, id := range req.Remove {
		if _, both := added[id]; both {
			return fail(fmt.Errorf("agent %q both added and removed: %w", id, ErrBadRequest))
		}
		u, err := s.pop.Remove(id)
		if err != nil {
			return fail(fmt.Errorf("remove: %v: %w", err, ErrBadRequest))
		}
		undo = append(undo, u)
	}
	// touched collects the distinct agent IDs the scalar mutations change,
	// declared through Population.Touch only after validation passes.
	touched := make(map[string]*worker.Agent, len(req.Weights)+len(req.Beta)+len(req.Omega)+len(req.Psi))
	agent := func(id string) *worker.Agent {
		if a, ok := touched[id]; ok {
			return a
		}
		i, ok := s.pop.Lookup(id)
		if !ok {
			return nil
		}
		a := s.pop.Agents[i]
		touched[id] = a
		return a
	}
	updated := 0
	for id, w := range req.Weights {
		if agent(id) == nil {
			return fail(fmt.Errorf("weight for unknown agent %q: %w", id, ErrBadRequest))
		}
		old := s.pop.Weights[id]
		s.pop.Weights[id] = w
		undo = append(undo, func() { s.pop.Weights[id] = old })
		updated++
	}
	for id, b := range req.Beta {
		a := agent(id)
		if a == nil {
			return fail(fmt.Errorf("beta for unknown agent %q: %w", id, ErrBadRequest))
		}
		old := a.Beta
		a.Beta = b
		undo = append(undo, func() { a.Beta = old })
		updated++
	}
	for id, o := range req.Omega {
		a := agent(id)
		if a == nil {
			return fail(fmt.Errorf("omega for unknown agent %q: %w", id, ErrBadRequest))
		}
		old := a.Omega
		a.Omega = o
		undo = append(undo, func() { a.Omega = old })
		updated++
	}
	for id, p := range req.Psi {
		a := agent(id)
		if a == nil {
			return fail(fmt.Errorf("psi for unknown agent %q: %w", id, ErrBadRequest))
		}
		old := a.Psi
		a.Psi = effort.Quadratic{R2: p.R2, R1: p.R1, R0: p.R0}
		undo = append(undo, func() { a.Psi = old })
		updated++
	}
	// Validate what the drift changed: the joiners, the touched agents
	// (sorted, so a drift with several faults always reports the same
	// one), a non-empty population and μ. Leavers took their map entries
	// with them, and Add and Remove keep IDs unique, so nothing else can
	// have moved.
	ids := make([]string, 0, len(touched))
	for id := range touched {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		scope = append(scope, touched[id])
	}
	if err := s.pop.ValidateScope(scope...); err != nil {
		return fail(err)
	}
	// Declare the scalar drift only now that validation passed — a
	// rejected drift reverts every mutation and leaves the drift scope
	// (and with it every engine view) as it was. Scalar mutations Touch
	// exactly the mutated agents. The design cache needs nothing — a
	// weight change re-picks from the cached menu, a mutated design key
	// simply misses and rebuilds, and a leaver's orphaned key is
	// refcount-evicted.
	s.pop.Touch(ids...)
	s.srv.metrics.driftDone()
	s.ledgerMu.RLock()
	rounds := s.ledger.len()
	s.ledgerMu.RUnlock()
	return cmdReply{drift: DriftResponse{
		Updated: updated,
		Touched: len(ids),
		Joined:  len(req.Add),
		Left:    len(req.Remove),
		Rounds:  rounds,
	}}
}

// resolveDesign turns a validated DesignQueryRequest into the agent and
// weight to design for. A session agent is copied under the population
// lock so the solver never reads an agent a concurrent drift is writing;
// an inline agent is validated against the session's partition.
func (s *session) resolveDesign(req *DesignQueryRequest) (*worker.Agent, float64, error) {
	if req.AgentID != "" {
		s.mu.Lock()
		defer s.mu.Unlock()
		i, ok := s.pop.Lookup(req.AgentID)
		if !ok {
			return nil, 0, fmt.Errorf("unknown agent %q: %w", req.AgentID, ErrBadRequest)
		}
		cp := *s.pop.Agents[i]
		return &cp, s.pop.Weights[cp.ID], nil
	}
	a, err := req.Agent.Agent()
	if err != nil {
		return nil, 0, err
	}
	if err := a.Validate(s.pop.Part.YMax()); err != nil {
		return nil, 0, fmt.Errorf("%v: %w", err, ErrBadRequest)
	}
	return a, req.Agent.Weight, nil
}

// design answers one design query on the request goroutine, under the
// request's context. The designer shares the round loop's Cache, so a
// warm query is a lookup and an O(m) pick, and a cold key is built once
// across concurrent queries and rounds (a query finding the key in flight
// awaits that build). A traced query gets a "session.design" span in its
// own trace. An error after ctx ended maps to 504 or 503, any other to
// 500.
func (s *session) design(ctx context.Context, a *worker.Agent, w float64) (*contract.PiecewiseLinear, int, error) {
	sp := spans.FromContext(ctx).StartChild("session.design")
	sp.SetAttr("agent", a.ID)
	c, err := s.designer.Design(ctx, s.pop.Part, s.pop.Mu, a, w)
	sp.End()
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, statusForCtx(cerr), err
		}
		return nil, http.StatusInternalServerError, err
	}
	return c, 0, nil
}

// info snapshots the session for GET /v1/sessions/{id}.
func (s *session) info() SessionInfo {
	s.ledgerMu.RLock()
	rounds, total, bytes := s.ledger.len(), s.ledger.total, s.ledger.bytes
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
		LedgerBytes:  bytes,
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
// this is the audit endpoint determinism checks diff). Only the header
// copy holds the ledger lock; the rounds are built from it outside, so a
// long listing never stalls the writer's next add.
func (s *session) rounds() []RoundJSON {
	s.ledgerMu.RLock()
	ledger := s.ledger.view()
	s.ledgerMu.RUnlock()
	out := make([]RoundJSON, ledger.len())
	for i := range out {
		out[i] = roundJSON(ledger.round(i), true)
		if s.listHook != nil {
			s.listHook(i)
		}
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
