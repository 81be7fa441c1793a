package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"dyncontract/internal/effort"
	"dyncontract/internal/engine"
	"dyncontract/internal/journal"
	"dyncontract/internal/worker"
)

// errNoJournal answers durability endpoints on a server without a journal.
var errNoJournal = errors.New("server: journaling disabled")

// errSnapshotBusy rejects a snapshot while another is still committing.
var errSnapshotBusy = errors.New("server: snapshot already in progress")

// snapshotVersion versions the snapshot body. Bump on incompatible
// changes; recovery refuses versions it does not know.
const snapshotVersion = 1

// sessionSnapshot is the body of a journal.KindSnapshot record: the full
// restorable state of one session. Population parameters are stored
// verbatim (post-default), rounds as the audit wire form — Go's float64
// JSON encoding is shortest-exact, so the ledger round-trips bit for bit.
type sessionSnapshot struct {
	Version   int         `json:"version"`
	Name      string      `json:"name,omitempty"`
	Policy    string      `json:"policy,omitempty"`
	Threshold float64     `json:"threshold,omitempty"`
	Amount    float64     `json:"amount,omitempty"`
	M         int         `json:"m"`
	Delta     float64     `json:"delta"`
	Mu        float64     `json:"mu"`
	Agents    []AgentSpec `json:"agents"`
	Stepped   int         `json:"stepped"`
	Rounds    []RoundJSON `json:"rounds"`
}

// journalCmd appends a round or drift command's record ahead of
// execution — the log is always a superset of the executed history. A
// drift's record is its body as received; a round's body may be empty, so
// its record is the encoded request. A failed append refuses the command:
// executing it would create state the journal cannot replay. Runs on the
// writer goroutine. The second return reports whether the command may
// execute.
func (s *session) journalCmd(cmd *command) (cmdReply, bool) {
	if s.jw == nil {
		return cmdReply{}, true
	}
	kind, body := journal.KindDrift, cmd.body
	var err error
	if cmd.kind == cmdRound {
		kind = journal.KindRound
		body, err = json.Marshal(cmd.round)
	}
	if err == nil {
		_, err = s.jw.Append(kind, body)
	}
	if err != nil {
		if lg := s.srv.logger; lg != nil {
			lg.Error("journal append failed", "session", s.id, "kind", kind.String(), "err", err)
		}
		return cmdReply{err: fmt.Errorf("journal append: %w", err), code: http.StatusInternalServerError}, false
	}
	return cmdReply{}, true
}

// afterCommand closes out one command on the writer goroutine: a failed
// execution gets an abort record (so replay skips it), a successful one
// counts toward the auto-snapshot cadence, and an idle queue flushes the
// write-behind buffer — in buffered mode that is the moment served
// responses become durable against process death.
func (s *session) afterCommand(journaled bool, execErr error) {
	if s.jw == nil {
		return
	}
	if execErr != nil {
		if journaled {
			if _, err := s.jw.Append(journal.KindAbort, nil); err != nil && s.srv.logger != nil {
				s.srv.logger.Error("journal abort append failed", "session", s.id, "err", err)
			}
		}
	} else {
		s.sinceSnap++
		if every := s.srv.cfg.SnapshotEvery; every > 0 && s.sinceSnap >= every && !s.snapBusy.Load() {
			s.startSnapshot(nil)
		}
	}
	if len(s.cmds) == 0 {
		if err := s.jw.Flush(); err != nil && s.srv.logger != nil {
			s.srv.logger.Error("journal flush failed", "session", s.id, "err", err)
		}
	}
}

// startSnapshot runs the snapshot protocol from the writer goroutine:
// seal the segment at the current sequence, capture the session state
// in-line (no command can be mid-flight here), then serialize, fsync,
// and truncate on a background goroutine so rounds keep flowing. reply
// is nil for auto-snapshots, which report failures to the log instead.
func (s *session) startSnapshot(reply chan cmdReply) {
	fail := func(err error, code int) {
		if reply != nil {
			reply <- cmdReply{err: err, code: code}
		} else if s.srv.logger != nil {
			s.srv.logger.Error("snapshot failed", "session", s.id, "err", err)
		}
	}
	if s.jw == nil {
		fail(errNoJournal, http.StatusConflict)
		return
	}
	if !s.snapBusy.CompareAndSwap(false, true) {
		fail(errSnapshotBusy, http.StatusConflict)
		return
	}
	seq, err := s.jw.BeginSnapshot()
	if err != nil {
		s.snapBusy.Store(false)
		fail(err, http.StatusInternalServerError)
		return
	}
	snap, ledger := s.captureState()
	s.sinceSnap = 0
	go func() {
		defer s.snapBusy.Store(false)
		snap.Rounds = make([]RoundJSON, ledger.len())
		for i := range snap.Rounds {
			snap.Rounds[i] = roundJSON(ledger.round(i), true)
		}
		body, err := json.Marshal(snap)
		if err == nil {
			err = s.jw.CommitSnapshot(seq, body)
		}
		if err != nil {
			fail(err, http.StatusInternalServerError)
			return
		}
		if reply != nil {
			reply <- cmdReply{snap: SnapshotResponse{Seq: seq, Bytes: len(body), Rounds: len(snap.Rounds)}}
		}
	}()
}

// captureState snapshots the session's restorable state on the writer
// goroutine. The ledger is captured by its header (roundLog.view), not
// copied: completed rows and table entries are immutable and add only
// ever writes past the captured lengths, so the background commit can
// serialize it without a lock.
func (s *session) captureState() (*sessionSnapshot, roundLog) {
	s.mu.Lock()
	agents := make([]AgentSpec, 0, len(s.pop.Agents))
	for _, a := range s.pop.Agents {
		agents = append(agents, AgentSpecOf(a, s.pop.Weights[a.ID], s.pop.MaliceProb[a.ID]))
	}
	m, delta, mu := s.pop.Part.M, s.pop.Part.Delta, s.pop.Mu
	s.mu.Unlock()
	s.ledgerMu.RLock()
	ledger := s.ledger.view()
	s.ledgerMu.RUnlock()
	return &sessionSnapshot{
		Version:   snapshotVersion,
		Name:      s.req.Name,
		Policy:    s.req.Policy,
		Threshold: s.req.Threshold,
		Amount:    s.req.Amount,
		M:         m,
		Delta:     delta,
		Mu:        mu,
		Agents:    agents,
		Stepped:   s.eng.Stepped(),
	}, ledger
}

// AgentSpecOf inverts AgentSpec.Agent: the wire form of an agent with its
// feedback weight and malice probability, as snapshots store it and as a
// client posts a population it built. Size is stored explicitly (agents
// carry the resolved >= 1 value, which Agent keeps), and a zero malice
// stays zero — popFromSnapshot then skips the map entry, matching
// buildExplicit; an entry's presence with value zero is unobservable.
func AgentSpecOf(a *worker.Agent, weight, malice float64) AgentSpec {
	return AgentSpec{
		ID:          a.ID,
		Class:       classString(a.Class),
		Psi:         PsiSpec{R2: a.Psi.R2, R1: a.Psi.R1, R0: a.Psi.R0},
		Beta:        a.Beta,
		Omega:       a.Omega,
		Size:        a.Size,
		Reservation: a.Reservation,
		Weight:      weight,
		Malice:      malice,
	}
}

// popFromSnapshot rebuilds the population with the snapshot's verbatim
// values, unvalidated: engine.New validates it. It must not ride
// buildExplicit: the wire decoder maps m=0 and mu=0 to defaults, and a
// snapshot stores the real post-default values.
func popFromSnapshot(snap *sessionSnapshot) (*engine.Population, error) {
	part, err := effort.NewPartition(snap.M, snap.Delta)
	if err != nil {
		return nil, fmt.Errorf("snapshot partition: %w", err)
	}
	pop := &engine.Population{
		Agents:     make([]*worker.Agent, 0, len(snap.Agents)),
		Weights:    make(map[string]float64, len(snap.Agents)),
		MaliceProb: make(map[string]float64, maliceCount(snap.Agents)),
		Part:       part,
		Mu:         snap.Mu,
	}
	for i := range snap.Agents {
		spec := &snap.Agents[i]
		a, err := spec.Agent()
		if err != nil {
			return nil, fmt.Errorf("snapshot agent %q: %w", spec.ID, err)
		}
		pop.Agents = append(pop.Agents, a)
		pop.Weights[a.ID] = spec.Weight
		if spec.Malice != 0 {
			pop.MaliceProb[a.ID] = spec.Malice
		}
	}
	return pop, nil
}

// outcomeFromJSON inverts outcomeJSON.
func outcomeFromJSON(oj OutcomeJSON) (engine.AgentOutcome, error) {
	cls, err := parseClass(oj.Class)
	if err != nil {
		return engine.AgentOutcome{}, err
	}
	return engine.AgentOutcome{
		AgentID:      oj.AgentID,
		Class:        cls,
		Size:         oj.Size,
		Excluded:     oj.Excluded,
		Declined:     oj.Declined,
		Effort:       oj.Effort,
		Feedback:     oj.Feedback,
		Compensation: oj.Compensation,
		Weight:       oj.Weight,
	}, nil
}

// roundFromJSON inverts roundJSON(r, true): the derived counters are
// dropped (roundJSON recomputes them) and every stored field is verbatim.
func roundFromJSON(rj RoundJSON) (engine.Round, error) {
	r := engine.Round{
		Index:   rj.Round,
		Benefit: rj.Benefit,
		Cost:    rj.Cost,
		Utility: rj.Utility,
	}
	for _, oj := range rj.Outcomes {
		oc, err := outcomeFromJSON(oj)
		if err != nil {
			return engine.Round{}, err
		}
		r.Outcomes = append(r.Outcomes, oc)
	}
	return r, nil
}

// openJournal starts a brand-new session's write-ahead log and appends
// its create record, body being the create request as received. The
// record reaches the OS even in buffered mode, so a session that crashes
// before serving a single command still recovers.
func (s *Server) openJournal(sess *session, body []byte) error {
	jw, err := s.cfg.Journal.Create(sess.id)
	if err != nil {
		return err
	}
	_, err = jw.Append(journal.KindCreate, body)
	if err == nil {
		err = jw.Flush()
	}
	if err != nil {
		jw.Close()
		return err
	}
	sess.jw = jw
	return nil
}

// RecoveryStats summarizes one Recover pass.
type RecoveryStats struct {
	// Sessions is the number of sessions restored and running again.
	Sessions int
	// Replayed is the total command records re-executed past snapshots.
	Replayed int
	// Failed is the number of sessions whose journal could not be
	// recovered; each failure is logged and leaves its files in place.
	Failed int
}

// Recover restores every journaled session from Config.Journal: snapshot
// (when one exists) plus deterministic replay of the command tail, in
// the exact order the original writer loop executed. Ledgers come back
// byte-identical to an uninterrupted run over the journaled prefix. A
// session whose journal is corrupt fails alone — its files stay on disk
// for forensics, its ID is retired, and every other session recovers.
// Call it after New and before serving traffic.
func (s *Server) Recover() (RecoveryStats, error) {
	var stats RecoveryStats
	if s.cfg.Journal == nil {
		return stats, nil
	}
	recs, failed, err := s.cfg.Journal.Recover()
	if err != nil {
		return stats, err
	}
	for _, f := range failed {
		stats.Failed++
		s.retireID(f.ID)
		if s.logger != nil {
			s.logger.Error("session recovery failed", "session", f.ID, "err", f.Err)
		}
	}
	for _, rec := range recs {
		s.retireID(rec.ID)
		sess, err := s.restoreSession(rec)
		if err != nil {
			stats.Failed++
			if s.logger != nil {
				s.logger.Error("session recovery failed", "session", rec.ID, "err", err)
			}
			continue
		}
		rounds := sess.ledger.len() // read before the writer owns the log
		s.mu.Lock()
		s.sessions[rec.ID] = sess
		s.mu.Unlock()
		s.metrics.addSessions(1)
		sess.start()
		stats.Sessions++
		stats.Replayed += sess.replayed
		if s.logger != nil {
			s.logger.Info("session recovered",
				"session", rec.ID,
				"rounds", rounds,
				"replayed", sess.replayed,
				"snapshot_seq", rec.SnapshotSeq,
				"last_seq", rec.LastSeq,
				"torn_bytes", rec.TornBytes,
			)
		}
	}
	return stats, nil
}

// restoreSession rebuilds one session from its journal: base state from
// the snapshot (or the create record), then replay. Replay re-executes
// each command through the same runRound/runDrift the live loop uses —
// the engine is deterministic, so the rebuilt ledger is the ledger the
// crashed process had. A command that fails on replay is skipped with a
// warning: it either failed identically live (its abort record was lost
// with the tail) or never finished executing; both left no state.
func (s *Server) restoreSession(rec journal.RecoveredSession) (*session, error) {
	tail := rec.Tail
	var sess *session
	if rec.Snapshot != nil {
		var snap sessionSnapshot
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		var err error
		if sess, err = s.sessionFromSnapshot(&snap); err != nil {
			return nil, err
		}
	} else {
		// The record was accepted by decodeCreate when it was served, so
		// the same decoder reads it back.
		var req CreateSessionRequest
		if err := decodeCreate(tail[0].Body, &req); err != nil {
			return nil, fmt.Errorf("create record: %w", err)
		}
		if err := req.Validate(); err != nil {
			return nil, fmt.Errorf("create record: %w", err)
		}
		var err error
		if sess, err = s.buildSession(&req); err != nil {
			return nil, err
		}
		tail = tail[1:]
	}
	sess.id = rec.ID
	for i, r := range tail {
		if r.Kind == journal.KindAbort {
			continue
		}
		if i+1 < len(tail) && tail[i+1].Kind == journal.KindAbort {
			continue // executed live, failed, left no state
		}
		var rep cmdReply
		switch r.Kind {
		case journal.KindRound:
			var req AdvanceRoundRequest
			if err := json.Unmarshal(r.Body, &req); err != nil {
				return nil, fmt.Errorf("record %d (%s): %w", r.Seq, r.Kind, err)
			}
			rep = sess.runRound(s.baseCtx, req)
		case journal.KindDrift:
			var req DriftRequest
			if err := json.Unmarshal(r.Body, &req); err != nil {
				return nil, fmt.Errorf("record %d (%s): %w", r.Seq, r.Kind, err)
			}
			rep = sess.runDrift(&req)
		default:
			return nil, fmt.Errorf("record %d: unexpected %s record in tail", r.Seq, r.Kind)
		}
		if rep.err != nil && s.logger != nil {
			s.logger.Warn("replayed command failed",
				"session", rec.ID, "seq", r.Seq, "kind", r.Kind.String(), "err", rep.err)
		}
		sess.replayed++
	}
	jw, err := s.cfg.Journal.Resume(rec.ID, rec.LastSeq)
	if err != nil {
		return nil, err
	}
	sess.jw = jw
	sess.recovered = true
	return sess, nil
}

// sessionFromSnapshot rebuilds a session's base state from a snapshot
// body: verbatim population, the original policy knobs (buildPolicy
// re-applies the same defaults it applied at creation), the captured
// ledger, and the engine's round counter.
func (s *Server) sessionFromSnapshot(snap *sessionSnapshot) (*session, error) {
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("snapshot version %d (supported: %d)", snap.Version, snapshotVersion)
	}
	pop, err := popFromSnapshot(snap)
	if err != nil {
		return nil, err
	}
	req := &CreateSessionRequest{
		Name:      snap.Name,
		M:         snap.M,
		Delta:     snap.Delta,
		Mu:        snap.Mu,
		Policy:    snap.Policy,
		Threshold: snap.Threshold,
		Amount:    snap.Amount,
	}
	sess, err := s.assembleValidated(req, pop, func(err error) error {
		return fmt.Errorf("snapshot population: %w", err)
	})
	if err != nil {
		return nil, err
	}
	for _, rj := range snap.Rounds {
		r, err := roundFromJSON(rj)
		if err != nil {
			return nil, fmt.Errorf("snapshot round %d: %w", rj.Round, err)
		}
		sess.ledger.add(r)
	}
	sess.eng.SetStepped(snap.Stepped)
	return sess, nil
}

// retireID keeps freshly minted session IDs ahead of journaled history,
// recovered and failed alike — a new session must never collide with an
// existing journal directory.
func (s *Server) retireID(id string) {
	num, ok := strings.CutPrefix(id, "s")
	if !ok {
		return
	}
	n, err := strconv.Atoi(num)
	if err != nil {
		return
	}
	s.mu.Lock()
	if n > s.nextID {
		s.nextID = n
	}
	s.mu.Unlock()
}

// handleSnapshot serves POST /v1/sessions/{id}/snapshot: force a
// snapshot now, through the writer loop so it lands on a command
// boundary.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if sess.jw == nil {
		writeError(w, http.StatusConflict, errNoJournal)
		return
	}
	release, code, err := sess.admit()
	if err != nil {
		writeError(w, code, err)
		return
	}
	defer release()
	cmd := command{ctx: r.Context(), kind: cmdSnapshot, reply: make(chan cmdReply, 1)}
	if code, err := sess.submit(cmd); err != nil {
		writeError(w, code, err)
		return
	}
	rep := <-cmd.reply
	if rep.err != nil {
		writeError(w, rep.code, rep.err)
		return
	}
	writeJSON(w, http.StatusOK, rep.snap)
}
