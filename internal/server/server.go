package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"dyncontract/internal/baseline"
	"dyncontract/internal/contract"
	"dyncontract/internal/effort"
	"dyncontract/internal/engine"
	"dyncontract/internal/journal"
	"dyncontract/internal/obs"
	"dyncontract/internal/platform"
	"dyncontract/internal/spans"
	"dyncontract/internal/telemetry"
	"dyncontract/internal/worker"
)

// Config tunes a Server. The zero value is usable: Defaults fills every
// unset field.
type Config struct {
	// Deprecated: BatchWindow is ignored. Design queries run on their
	// request goroutines, so no query waits on a timer. It is kept only
	// because perfbench sets it; it goes with perfbench's next change
	// (ROADMAP item 2).
	BatchWindow time.Duration
	// CommandQueue bounds each session's round/drift queue. Default 16.
	CommandQueue int
	// MaxInFlight caps admitted-but-unanswered requests per session
	// (queued or executing); beyond it, 429. Default 256.
	MaxInFlight int
	// MaxSessions caps live sessions; beyond it, session creation 429s.
	// Default 64.
	MaxSessions int
	// RequestTimeout bounds each request's server-side context. Default 30s.
	RequestTimeout time.Duration
	// Metrics instruments every route and the engine sessions; nil is off.
	Metrics *telemetry.Registry
	// Tracer records execution spans for sampled requests — HTTP route,
	// session queue wait, execution, engine round, stages — and
	// serves them under GET /debug/traces. Nil is off: requests cost no
	// tracing work at all.
	Tracer *spans.Tracer
	// Logger receives request logs (route, status, duration, trace and
	// session IDs) and session events such as drift-scope escalations.
	// Nil is off.
	Logger *slog.Logger
	// Journal, when non-nil, makes sessions durable: every command is
	// written ahead to a per-session log before it executes, snapshots
	// compact the log, and Recover restores journaled sessions at boot
	// with byte-identical ledgers. Nil is off.
	Journal *journal.Store
	// SnapshotEvery auto-snapshots each session after this many
	// successful commands; 0 means manual snapshots only (via
	// POST /v1/sessions/{id}/snapshot).
	SnapshotEvery int
}

// Defaults returns cfg with every unset field at its default.
func (cfg Config) Defaults() Config {
	if cfg.CommandQueue <= 0 {
		cfg.CommandQueue = 16
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 64
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	return cfg
}

// Server is the serving layer: a registry of long-lived engine sessions
// behind the versioned JSON API. Create one with New, mount Handler, and
// call Drain before exiting.
type Server struct {
	cfg     Config
	metrics *serverMetrics
	tracer  *spans.Tracer
	logger  *slog.Logger
	mux     *http.ServeMux

	// baseCtx outlives any single request: recovery replays journaled
	// rounds under it. Drain cancels it last.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu       sync.Mutex
	sessions map[string]*session
	nextID   int
	draining bool

	// testWrapPolicy, when set (tests only), wraps each new session's
	// policy — the seam shutdown tests use to hold a round mid-flight.
	testWrapPolicy func(engine.Policy) engine.Policy
}

// New builds a Server and its route table.
func New(cfg Config) *Server {
	cfg = cfg.Defaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		metrics:    newServerMetrics(cfg.Metrics),
		tracer:     cfg.Tracer,
		logger:     cfg.Logger,
		baseCtx:    ctx,
		cancelBase: cancel,
		sessions:   make(map[string]*session),
	}
	s.mux = http.NewServeMux()
	route := func(pattern, name string, h http.HandlerFunc) {
		// Trace middleware sits outermost so the root span covers the whole
		// request (the latency metric included) and the instrumented handler
		// can read the span off the request context for its exemplar label.
		var inner http.Handler
		if s.tracer != nil {
			inner = telemetry.InstrumentHandlerExemplar(cfg.Metrics, name, h, traceExemplar)
		} else {
			inner = telemetry.InstrumentHandler(cfg.Metrics, name, h)
		}
		if s.tracer != nil || s.logger != nil {
			inner = s.traced(name, inner)
		}
		s.mux.Handle(pattern, inner)
	}
	route("GET /healthz", "healthz", s.handleHealthz)
	route("POST /v1/sessions", "sessions_create", s.handleCreateSession)
	route("GET /v1/sessions/{id}", "sessions_get", s.handleGetSession)
	route("GET /v1/sessions/{id}/rounds", "rounds_list", s.handleListRounds)
	route("POST /v1/sessions/{id}/rounds", "rounds_advance", s.handleAdvanceRound)
	route("POST /v1/sessions/{id}/design", "design", s.handleDesign)
	route("POST /v1/sessions/{id}/drift", "drift", s.handleDrift)
	route("POST /v1/sessions/{id}/snapshot", "snapshot", s.handleSnapshot)
	if cfg.Metrics != nil || s.tracer.Recorder() != nil {
		// /metrics + /debug/pprof/ + /debug/traces
		s.mux.Handle("/", obs.HandlerWith(cfg.Metrics, s.tracer.Recorder()))
	}
	return s
}

// traceExemplar labels a latency observation with the request's trace ID,
// linking the histogram's worst sample back to a retrievable trace.
func traceExemplar(r *http.Request) string {
	if sp := spans.FromContext(r.Context()); sp != nil {
		return sp.TraceID().String()
	}
	return ""
}

// statusCapture remembers the first status code written so the trace span
// and the request log can carry it.
type statusCapture struct {
	http.ResponseWriter
	status int
}

func (c *statusCapture) WriteHeader(code int) {
	if c.status == 0 {
		c.status = code
	}
	c.ResponseWriter.WriteHeader(code)
}

func (c *statusCapture) Write(b []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	return c.ResponseWriter.Write(b)
}

// traced wraps a route with the tracing + request-log middleware. The
// client's X-Request-Id (any non-empty string — literal 32-hex trace IDs
// round-trip, anything else hashes deterministically) names the trace;
// absent one, the server mints an ID. Either way the response echoes the
// ID in X-Request-Id so the client can fetch its trace from
// /debug/traces?id=. Sampled-out requests still echo the header but
// record nothing.
func (s *Server) traced(name string, next http.Handler) http.Handler {
	spanName := "http " + name
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get(spans.HeaderRequestID)
		var sp *spans.Span
		if s.tracer != nil {
			id, ok := spans.ParseTraceHeader(reqID)
			if !ok {
				id = s.tracer.NewTraceID()
				reqID = id.String()
			}
			if sp = s.tracer.StartRoot(spanName, id); sp != nil {
				sp.SetAttr("route", name)
				sp.SetAttr("method", r.Method)
				r = r.WithContext(spans.ContextWith(r.Context(), sp))
			}
		}
		if reqID != "" {
			w.Header().Set(spans.HeaderRequestID, reqID)
		}
		sw := &statusCapture{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		if sp != nil {
			sp.SetInt("status", int64(status))
			sp.End()
		}
		if s.logger != nil {
			s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("route", name),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("session", r.PathValue("id")),
				slog.String("trace", reqID),
				slog.Int("status", status),
				slog.Duration("duration", time.Since(start)),
			)
		}
	})
}

// Handler returns the server's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain shuts the server down gracefully: new work is refused (healthz
// flips to 503, and admit answers new requests 503), every session
// finishes its in-flight command, queued commands are answered 503, and
// the call returns when every session's writer has exited or ctx expires.
// Design queries run on their request goroutines, so Drain does not wait
// for those already admitted; http.Server.Shutdown, which contractd calls
// after Drain, does.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	all := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		all = append(all, sess)
	}
	s.mu.Unlock()
	for _, sess := range all {
		sess.close()
	}
	defer s.cancelBase()
	for _, sess := range all {
		select {
		case <-sess.done:
		case <-ctx.Done():
			return fmt.Errorf("server: drain: session %s still busy: %w", sess.id, ctx.Err())
		}
	}
	return nil
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(`{"status":"ok"}` + "\n"))
}

// handleCreateSession reads the create body once, decodes it
// (decodeCreate), and hands the same bytes to the journal: replay decodes
// and validates them again, so it builds the same request without a
// re-encoding.
func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	var req CreateSessionRequest
	if err == nil {
		err = decodeCreate(body, &req)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sess, err := s.newSession(&req, body)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, CreateSessionResponse{
		ID:     sess.id,
		Agents: len(sess.pop.Agents),
		Policy: sess.policyName,
	})
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, sess.info())
}

func (s *Server) handleListRounds(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, sess.rounds())
}

func (s *Server) handleAdvanceRound(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req AdvanceRoundRequest
	if !decodeBody(w, r, &req) {
		return
	}
	release, code, err := sess.admit()
	if err != nil {
		writeError(w, code, err)
		return
	}
	defer release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	cmd := command{ctx: ctx, kind: cmdRound, round: req, reply: make(chan cmdReply, 1)}
	if code, err := sess.submit(cmd); err != nil {
		writeError(w, code, err)
		return
	}
	// The writer always answers every queued command (drain included), so
	// waiting on the reply alone cannot hang past the drain.
	rep := <-cmd.reply
	if rep.err != nil {
		writeError(w, rep.code, rep.err)
		return
	}
	writeJSON(w, http.StatusOK, rep.round)
}

// handleDrift reads the drift body once, decodes it, and carries the same
// bytes to the writer, which journals them as the drift record: replay
// decodes them again.
func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	body, err := readBody(w, r)
	var req DriftRequest
	if err == nil {
		err = decodeJSON(bytes.NewReader(body), &req)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	release, code, err := sess.admit()
	if err != nil {
		writeError(w, code, err)
		return
	}
	defer release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	cmd := command{ctx: ctx, kind: cmdDrift, drift: &req, body: body, reply: make(chan cmdReply, 1)}
	if code, err := sess.submit(cmd); err != nil {
		writeError(w, code, err)
		return
	}
	rep := <-cmd.reply
	if rep.err != nil {
		writeError(w, rep.code, rep.err)
		return
	}
	writeJSON(w, http.StatusOK, rep.drift)
}

// handleDesign answers a design query without reflection: the body is
// read once and decoded by decodeDesign, and the answer is appended into
// one buffer (appendDesignAnswer) and written once.
func (s *Server) handleDesign(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	body, err := readBody(w, r)
	var req DesignQueryRequest
	if err == nil {
		err = decodeDesign(body, &req)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	a, wt, err := sess.resolveDesign(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	release, code, err := sess.admit()
	if err != nil {
		writeError(w, code, err)
		return
	}
	defer release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	c, code, err := sess.design(ctx, a, wt)
	if err != nil {
		writeError(w, code, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(appendDesignAnswer(make([]byte, 0, designAnswerLen(a.ID, c)), a.ID, c))
}

// lookup resolves {id} or writes 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*session, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no session %q", id))
		return nil, false
	}
	return sess, true
}

// newSession builds a population from the request, wires an engine around
// it, opens its journal (when durability is on) with body, the request as
// received, and registers the running session.
func (s *Server) newSession(req *CreateSessionRequest, body []byte) (*session, error) {
	sess, err := s.buildSession(req)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errDraining
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.metrics.reject()
		return nil, fmt.Errorf("server: %d sessions live (limit %d): %w",
			len(s.sessions), s.cfg.MaxSessions, errTooMany)
	}
	s.nextID++
	id := "s" + strconv.Itoa(s.nextID)
	s.mu.Unlock()
	sess.id = id

	if s.cfg.Journal != nil {
		if err := s.openJournal(sess, body); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errDraining
	}
	s.sessions[id] = sess
	s.mu.Unlock()
	s.metrics.addSessions(1)
	sess.start()
	return sess, nil
}

// buildSession resolves a validated create request into an assembled (but
// unregistered, unnamed) session: population, policy, engine, queues.
// The population is validated once, by engine.New; its errors are the
// client's.
func (s *Server) buildSession(req *CreateSessionRequest) (*session, error) {
	pop, err := buildExplicit(req)
	if err != nil {
		return nil, err
	}
	return s.assembleValidated(req, pop, func(err error) error { return fmt.Errorf("%v: %w", err, ErrBadRequest) })
}

// assembleValidated builds the request's policy and assembles the session
// around pop, which engine.New validates; badPop maps a population error
// to the caller's. A bad population outranks a bad policy, so a policy
// error is returned only for a population that validates.
func (s *Server) assembleValidated(req *CreateSessionRequest, pop *engine.Population, badPop func(error) error) (*session, error) {
	pol, polName, err := buildPolicy(req)
	if err != nil {
		if perr := pop.Validate(); perr != nil {
			return nil, badPop(perr)
		}
		return nil, err
	}
	sess, err := s.assembleSession(req, pop, pol, polName)
	if err != nil {
		// The policy is set and the horizon positive: engine.New failed
		// on the population.
		return nil, badPop(err)
	}
	return sess, nil
}

// assembleSession wires the engine and goroutine plumbing around an
// already-built population and policy. The caller assigns the ID; both
// session creation and journal recovery land here.
func (s *Server) assembleSession(req *CreateSessionRequest, pop *engine.Population, pol engine.Policy, polName string) (*session, error) {
	s.mu.Lock()
	wrap := s.testWrapPolicy
	s.mu.Unlock()
	if wrap != nil {
		pol = wrap(pol)
	}
	cache := engine.NewCache()
	capture := &captureObserver{}
	eng, err := engine.New(pop, engine.Config{
		Policy:    pol,
		Rounds:    1, // Step ignores the horizon; New requires it positive
		Observers: []engine.Observer{capture},
		Cache:     cache,
		Memo:      engine.NewRespondMemo(),
		Metrics:   s.cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	// The session keeps the request's knobs, not its agents: the
	// population holds those, and a snapshot reads them from it.
	knobs := *req
	knobs.Agents = nil
	return &session{
		name:       req.Name,
		policyName: polName,
		srv:        s,
		pop:        pop,
		eng:        eng,
		capture:    capture,
		designer:   &engine.Designer{Cache: cache, Metrics: s.cfg.Metrics},
		req:        &knobs,
		cmds:       make(chan command, s.cfg.CommandQueue),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
	}, nil
}

// errTooMany marks capacity rejections; handlers map it to 429.
var errTooMany = errors.New("server: too many")

// buildExplicit mints a population from inline agent specs, unvalidated:
// engine.New validates it.
func buildExplicit(req *CreateSessionRequest) (*engine.Population, error) {
	m := req.M
	if m == 0 {
		m = 20
	}
	part, err := effort.NewPartition(m, req.Delta)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrBadRequest)
	}
	mu := req.Mu
	if mu == 0 {
		mu = 1
	}
	pop := &engine.Population{
		Agents:     make([]*worker.Agent, 0, len(req.Agents)),
		Weights:    make(map[string]float64, len(req.Agents)),
		MaliceProb: make(map[string]float64, maliceCount(req.Agents)),
		Part:       part,
		Mu:         mu,
	}
	for i := range req.Agents {
		spec := &req.Agents[i]
		a, err := spec.Agent()
		if err != nil {
			return nil, err
		}
		pop.Agents = append(pop.Agents, a)
		pop.Weights[a.ID] = spec.Weight
		if spec.Malice != 0 {
			pop.MaliceProb[a.ID] = spec.Malice
		}
	}
	return pop, nil
}

// maliceCount returns how many specs carry a non-zero malice: the size
// of the population's MaliceProb map, where a zero malice stays absent.
func maliceCount(specs []AgentSpec) int {
	n := 0
	for i := range specs {
		if specs[i].Malice != 0 {
			n++
		}
	}
	return n
}

func buildPolicy(req *CreateSessionRequest) (engine.Policy, string, error) {
	switch req.Policy {
	case "", "dynamic":
		return &platform.DynamicPolicy{}, "dynamic", nil
	case "exclude":
		th := req.Threshold
		if th == 0 {
			th = 0.5
		}
		return &baseline.ExcludeMalicious{Threshold: th}, "exclude", nil
	case "fixed":
		amt := req.Amount
		if amt <= 0 {
			return nil, "", fmt.Errorf("fixed policy needs amount > 0, got %v: %w", req.Amount, ErrBadRequest)
		}
		return &baseline.FixedPayment{Amount: amt}, "fixed", nil
	default:
		return nil, "", fmt.Errorf("unknown policy %q: %w", req.Policy, ErrBadRequest)
	}
}

// readBody reads the whole request body, at most maxBodyBytes, into a
// buffer presized from Content-Length.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	size := int64(bytes.MinRead)
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		size += n
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrBadRequest)
	}
	return buf.Bytes(), nil
}

// decodeBody strictly decodes the request body into dst, writing the error
// response itself on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := decodeJSON(body, dst); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// statusFor maps classified errors to HTTP codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest), errors.Is(err, engine.ErrBadPopulation):
		return http.StatusBadRequest
	case errors.Is(err, errTooMany):
		return http.StatusTooManyRequests
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// appendDesignAnswer appends the bytes json.NewEncoder(w).Encode writes
// for DesignQueryResponse{AgentID: id, Contract: c}, newline included.
func appendDesignAnswer(dst []byte, id string, c *contract.PiecewiseLinear) []byte {
	dst = append(dst, '{')
	if id != "" {
		dst = append(dst, `"agent_id":`...)
		dst = appendString(dst, id)
		dst = append(dst, ',')
	}
	dst = append(dst, `"contract":`...)
	dst = c.AppendJSON(dst)
	return append(dst, "}\n"...)
}

// designAnswerLen returns len(appendDesignAnswer(nil, id, c)), so the
// route allocates its answer once and at its exact size.
func designAnswerLen(id string, c *contract.PiecewiseLinear) int {
	n := len(`{"contract":}`+"\n") + c.JSONLen()
	if id != "" {
		n += len(`"agent_id":,`) + quotedLen(id)
	}
	return n
}

// quotedLen returns len(appendString(nil, s)).
func quotedLen(s string) int {
	if plainString(s) {
		return len(s) + 2
	}
	q, _ := json.Marshal(s) // a string always marshals
	return len(q)
}

// plainString reports whether s is plain ASCII with nothing JSON or
// encoding/json's HTML escaping would escape.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < 0x20 || b >= utf8.RuneSelf || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
			return false
		}
	}
	return true
}

// appendString appends s as a JSON string. Plain ASCII with nothing to
// escape is copied as is; anything else goes through json.Marshal, so
// HTML characters, U+2028/2029 and invalid UTF-8 are escaped as
// encoding/json escapes them.
func appendString(dst []byte, s string) []byte {
	if !plainString(s) {
		q, _ := json.Marshal(s) // a string always marshals
		return append(dst, q...)
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}
