// Package server is the serving layer over internal/engine: a
// stdlib-only long-lived HTTP service that owns named contract-design
// sessions (population + policy + ledger) behind a versioned JSON API.
//
// The concurrency contract (DESIGN.md § Serving layer):
//
//   - Round advancement and drift are serialized per session through a
//     single-writer loop, so ledgers are byte-identical to the same
//     request sequence applied sequentially to a bare engine.
//   - A design-only query runs on its own request goroutine through
//     engine.Designer.Design, against the same design cache the round
//     loop warms: a warm query is a lookup and an O(m) pick, and a cold
//     key is built once across concurrent queries and rounds.
//   - Overload produces backpressure, not queues without bound: the
//     bounded per-session command queue and an in-flight cap return 429
//     with Retry-After; a draining server returns 503.
//
// Every route is instrumented through telemetry.InstrumentHandler, and
// the server exposes /metrics (Prometheus text) + /debug/pprof/ via
// internal/obs, so one scrape tells the whole serving story.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"dyncontract/internal/contract"
	"dyncontract/internal/effort"
	"dyncontract/internal/engine"
	"dyncontract/internal/worker"
)

// maxBodyBytes caps request bodies (inline populations can be large, but
// not unbounded).
const maxBodyBytes = 8 << 20

// ErrBadRequest marks request payloads that decoded but failed
// validation; handlers map it to 400.
var ErrBadRequest = errors.New("server: invalid request")

// PsiSpec is the wire form of a quadratic effort function ψ.
type PsiSpec struct {
	R2 float64 `json:"r2"`
	R1 float64 `json:"r1"`
	R0 float64 `json:"r0"`
}

// AgentSpec is the wire form of one worker agent plus its requester-side
// parameters (feedback weight, estimated malice probability).
type AgentSpec struct {
	ID          string  `json:"id"`
	Class       string  `json:"class"` // honest | malicious | community
	Psi         PsiSpec `json:"psi"`
	Beta        float64 `json:"beta"`
	Omega       float64 `json:"omega,omitempty"`
	Size        int     `json:"size,omitempty"` // 0 means 1
	Reservation float64 `json:"reservation,omitempty"`
	Weight      float64 `json:"weight"`
	Malice      float64 `json:"malice,omitempty"`
}

// Agent converts the spec into a worker.Agent. Structural validation is
// deferred to Population.Validate / Agent.Validate, which see the
// partition; only the class name is resolved here.
func (s *AgentSpec) Agent() (*worker.Agent, error) {
	cls, err := parseClass(s.Class)
	if err != nil {
		return nil, err
	}
	size := s.Size
	if size == 0 {
		size = 1
	}
	return &worker.Agent{
		ID:          s.ID,
		Class:       cls,
		Psi:         effort.Quadratic{R2: s.Psi.R2, R1: s.Psi.R1, R0: s.Psi.R0},
		Beta:        s.Beta,
		Omega:       s.Omega,
		Size:        size,
		Reservation: s.Reservation,
	}, nil
}

func parseClass(s string) (worker.Class, error) {
	switch s {
	case "honest":
		return worker.Honest, nil
	case "malicious", "non-collusive-malicious":
		return worker.NonCollusiveMalicious, nil
	case "community", "collusive-malicious":
		return worker.CollusiveMalicious, nil
	default:
		return 0, fmt.Errorf("unknown class %q (want honest, malicious, or community): %w", s, ErrBadRequest)
	}
}

func classString(c worker.Class) string {
	switch c {
	case worker.Honest:
		return "honest"
	case worker.NonCollusiveMalicious:
		return "malicious"
	case worker.CollusiveMalicious:
		return "community"
	default:
		return c.String()
	}
}

// CreateSessionRequest mints a session either from a synthetic trace
// (scale + seed, the CLIs' pipeline) or from an explicit inline
// population (agents + partition + mu). Exactly one of the two routes
// must be used.
type CreateSessionRequest struct {
	Name string `json:"name,omitempty"`

	// Synthetic route.
	Scale    string `json:"scale,omitempty"` // small | paper
	Seed     int64  `json:"seed,omitempty"`
	PerClass int    `json:"per_class,omitempty"` // agents sampled per class; 0 means 200

	// Explicit route.
	Agents []AgentSpec `json:"agents,omitempty"`
	M      int         `json:"m,omitempty"` // effort intervals; 0 means 20
	Delta  float64     `json:"delta,omitempty"`
	Mu     float64     `json:"mu,omitempty"` // 0 means 1

	// Common knobs.
	Policy    string  `json:"policy,omitempty"` // dynamic (default) | exclude | fixed
	Threshold float64 `json:"threshold,omitempty"`
	Amount    float64 `json:"amount,omitempty"`
	// Shards is accepted, range-checked ([0, 1024]) and journaled with
	// the create body, and otherwise ignored: the engine runs one round
	// pipeline whatever its value. Snapshots do not carry it.
	Shards int `json:"shards,omitempty"`
}

// Validate checks the payload's internal consistency — everything that
// can be decided without building the population.
func (r *CreateSessionRequest) Validate() error {
	synthetic := r.Scale != ""
	explicit := len(r.Agents) > 0
	if synthetic == explicit {
		return fmt.Errorf("exactly one of scale or agents must be set: %w", ErrBadRequest)
	}
	if synthetic && r.Scale != "small" && r.Scale != "paper" {
		return fmt.Errorf("unknown scale %q (want small or paper): %w", r.Scale, ErrBadRequest)
	}
	if r.PerClass < 0 {
		return fmt.Errorf("per_class=%d must be >= 0: %w", r.PerClass, ErrBadRequest)
	}
	if explicit {
		if r.M < 0 {
			return fmt.Errorf("m=%d must be >= 0: %w", r.M, ErrBadRequest)
		}
		if !(r.Delta > 0) || math.IsInf(r.Delta, 0) {
			return fmt.Errorf("delta=%v must be positive and finite: %w", r.Delta, ErrBadRequest)
		}
		if r.Mu < 0 || math.IsNaN(r.Mu) || math.IsInf(r.Mu, 0) {
			return fmt.Errorf("mu=%v must be finite and >= 0: %w", r.Mu, ErrBadRequest)
		}
	}
	switch r.Policy {
	case "", "dynamic", "exclude", "fixed":
	default:
		return fmt.Errorf("unknown policy %q (want dynamic, exclude, or fixed): %w", r.Policy, ErrBadRequest)
	}
	if r.Shards < 0 || r.Shards > 1024 {
		return fmt.Errorf("shards=%d must be in [0, 1024]: %w", r.Shards, ErrBadRequest)
	}
	return nil
}

// CacheStatsJSON is the wire form of engine.CacheStats: design-menu
// lookups served (hits), menus built (misses), and menus held (entries).
type CacheStatsJSON struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// JournalInfo reports a durable session's journal state inside
// SessionInfo: the last assigned sequence number, and — for sessions
// restored at boot — whether recovery happened and how many command
// records were replayed past the snapshot.
type JournalInfo struct {
	Seq       uint64 `json:"seq"`
	Recovered bool   `json:"recovered,omitempty"`
	Replayed  int    `json:"replayed,omitempty"`
}

// SessionInfo is the GET /v1/sessions/{id} response. LedgerBytes is
// what the retained ledger holds: 4 B per full-row reference, 8 B per
// delta-row edit and one AgentOutcome per distinct outcome.
type SessionInfo struct {
	ID           string         `json:"id"`
	Name         string         `json:"name,omitempty"`
	Policy       string         `json:"policy"`
	Agents       int            `json:"agents"`
	Rounds       int            `json:"rounds"`
	TotalUtility float64        `json:"total_utility"`
	LedgerBytes  int64          `json:"ledger_bytes"`
	Cache        CacheStatsJSON `json:"cache"`
	Draining     bool           `json:"draining,omitempty"`
	Journal      *JournalInfo   `json:"journal,omitempty"`
}

// SnapshotResponse is the POST /v1/sessions/{id}/snapshot response: the
// sequence number the snapshot covers, its serialized size, and the
// number of completed rounds it captured.
type SnapshotResponse struct {
	Seq    uint64 `json:"seq"`
	Bytes  int    `json:"bytes"`
	Rounds int    `json:"rounds"`
}

// AdvanceRoundRequest is the POST /v1/sessions/{id}/rounds body. An empty
// body advances one round and returns the summary only.
type AdvanceRoundRequest struct {
	IncludeOutcomes  bool `json:"include_outcomes,omitempty"`
	IncludeContracts bool `json:"include_contracts,omitempty"`
}

// OutcomeJSON is the wire form of one agent's round outcome.
type OutcomeJSON struct {
	AgentID      string  `json:"agent_id"`
	Class        string  `json:"class"`
	Size         int     `json:"size"`
	Excluded     bool    `json:"excluded,omitempty"`
	Declined     bool    `json:"declined,omitempty"`
	Effort       float64 `json:"effort"`
	Feedback     float64 `json:"feedback"`
	Compensation float64 `json:"compensation"`
	Weight       float64 `json:"weight"`
}

func outcomeJSON(oc engine.AgentOutcome) OutcomeJSON {
	return OutcomeJSON{
		AgentID:      oc.AgentID,
		Class:        classString(oc.Class),
		Size:         oc.Size,
		Excluded:     oc.Excluded,
		Declined:     oc.Declined,
		Effort:       oc.Effort,
		Feedback:     oc.Feedback,
		Compensation: oc.Compensation,
		Weight:       oc.Weight,
	}
}

// RoundJSON is one completed round on the wire: the POST .../rounds
// response and the GET .../rounds list element.
type RoundJSON struct {
	Round     int                                  `json:"round"`
	Benefit   float64                              `json:"benefit"`
	Cost      float64                              `json:"cost"`
	Utility   float64                              `json:"utility"`
	Agents    int                                  `json:"agents"`
	Excluded  int                                  `json:"excluded"`
	Declined  int                                  `json:"declined"`
	Outcomes  []OutcomeJSON                        `json:"outcomes,omitempty"`
	Contracts map[string]*contract.PiecewiseLinear `json:"contracts,omitempty"`
}

func roundJSON(r engine.Round, includeOutcomes bool) RoundJSON {
	out := RoundJSON{
		Round:   r.Index,
		Benefit: r.Benefit,
		Cost:    r.Cost,
		Utility: r.Utility,
		Agents:  len(r.Outcomes),
	}
	for _, oc := range r.Outcomes {
		if oc.Excluded {
			out.Excluded++
		}
		if oc.Declined {
			out.Declined++
		}
		if includeOutcomes {
			out.Outcomes = append(out.Outcomes, outcomeJSON(oc))
		}
	}
	return out
}

// DesignQueryRequest is the POST /v1/sessions/{id}/design body: either a
// reference to a session agent (weight from the session) or an inline
// agent spec (weight from the spec).
type DesignQueryRequest struct {
	AgentID string     `json:"agent_id,omitempty"`
	Agent   *AgentSpec `json:"agent,omitempty"`
}

// Validate checks exactly one query form is present.
func (r *DesignQueryRequest) Validate() error {
	if (r.AgentID == "") == (r.Agent == nil) {
		return fmt.Errorf("exactly one of agent_id or agent must be set: %w", ErrBadRequest)
	}
	if r.Agent != nil {
		if math.IsNaN(r.Agent.Weight) || math.IsInf(r.Agent.Weight, 0) {
			return fmt.Errorf("agent weight=%v must be finite: %w", r.Agent.Weight, ErrBadRequest)
		}
	}
	return nil
}

// DesignQueryResponse carries the designed contract back.
type DesignQueryResponse struct {
	AgentID  string                    `json:"agent_id,omitempty"`
	Contract *contract.PiecewiseLinear `json:"contract"`
}

// DriftRequest is the POST /v1/sessions/{id}/drift body: sparse per-agent
// mutations applied atomically between rounds through the single-writer
// loop. Add joins new agents (full specs, weight and malice included) and
// Remove retires existing ones by ID — both declared to the engine as a
// structural scope, so the engine splices exactly those agents into its
// view while everyone else's retained state stays warm. Unknown agent IDs, duplicate
// or overlapping add/remove declarations, and mutations that break
// population validation reject the whole request and leave the session
// untouched.
type DriftRequest struct {
	Weights map[string]float64 `json:"weights,omitempty"`
	Beta    map[string]float64 `json:"beta,omitempty"`
	Omega   map[string]float64 `json:"omega,omitempty"`
	Psi     map[string]PsiSpec `json:"psi,omitempty"`
	Add     []AgentSpec        `json:"add,omitempty"`
	Remove  []string           `json:"remove,omitempty"`
}

// Validate rejects an empty drift (nothing to apply is almost always a
// caller bug) and malformed structural declarations — value-level checks
// run against the population.
func (r *DriftRequest) Validate() error {
	if len(r.Weights)+len(r.Beta)+len(r.Omega)+len(r.Psi)+len(r.Add)+len(r.Remove) == 0 {
		return fmt.Errorf("drift with no mutations: %w", ErrBadRequest)
	}
	for i := range r.Add {
		spec := &r.Add[i]
		if spec.ID == "" {
			return fmt.Errorf("add[%d] has no agent id: %w", i, ErrBadRequest)
		}
		if math.IsNaN(spec.Weight) || math.IsInf(spec.Weight, 0) {
			return fmt.Errorf("add %q weight=%v must be finite: %w", spec.ID, spec.Weight, ErrBadRequest)
		}
	}
	for i, id := range r.Remove {
		if id == "" {
			return fmt.Errorf("remove[%d] has no agent id: %w", i, ErrBadRequest)
		}
	}
	return nil
}

// DriftResponse reports the number of field mutations applied, the
// distinct agents touched (declared to the engine as the drift scope, so
// only their view slots refresh), the agents joined and left (declared as the
// structural scope), and the session's completed-round count at the time.
type DriftResponse struct {
	Updated int `json:"updated"`
	Touched int `json:"touched"`
	Joined  int `json:"joined,omitempty"`
	Left    int `json:"left,omitempty"`
	Rounds  int `json:"rounds"`
}

// CreateSessionResponse is the POST /v1/sessions response.
type CreateSessionResponse struct {
	ID     string `json:"id"`
	Agents int    `json:"agents"`
	Policy string `json:"policy"`
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
}

// decodeJSON strictly decodes one JSON value: unknown fields and trailing
// data are errors (malformed bodies must be rejected loudly, not half
// understood). An empty body decodes the zero value, letting POST
// endpoints with all-optional fields accept no body at all.
func decodeJSON(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		if errors.Is(err, io.EOF) {
			return nil // empty body = zero value
		}
		return fmt.Errorf("%v: %w", err, ErrBadRequest)
	}
	// A second value (or trailing garbage) is an error; io.EOF is clean.
	var extra json.RawMessage
	if err := dec.Decode(&extra); !errors.Is(err, io.EOF) {
		return fmt.Errorf("trailing data after JSON body: %w", ErrBadRequest)
	}
	return nil
}
