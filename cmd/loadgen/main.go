// Command loadgen hammers a running contractd with a mixed workload of
// round advances, design-only queries, (with -drift-every) sparse
// drift mutations, and (with -join-every / -leave-every) structural
// churn — agents joining and leaving mid-session — then prints a
// latency and error summary. It drives
// either closed-loop load (each client issues its next request as soon as
// the previous answers) or open-loop load (-rate fixes total request
// arrivals per second regardless of response times — the honest way to
// measure latency under load).
//
// Usage:
//
//	loadgen -addr http://127.0.0.1:8080 [-clients n] [-duration d]
//	        [-requests n] [-rate qps] [-round-every k] [-weights n]
//	        [-drift-every k] [-drift-agents n] [-churn]
//	        [-join-every k] [-leave-every k]
//	        [-scale small|paper] [-seed n] [-per-class n] [-strict]
//	        [-journal-check file]
//	loadgen -addr ... -healthcheck [-healthcheck-timeout d]
//
// -scale small|paper builds the synthpop pipeline's population for -seed
// here, up to -per-class honest and non-collusive workers plus every
// community, and posts it as explicit agents; without -scale the session
// is a four-agent inline population. Design probes and joiners are copies
// of the population's first honest agent, so their psi is valid on the
// session's partition.
//
// -join-every k makes every k-th non-round request add a fresh agent to
// the session (ids are namespaced per client, lg-<client>-<seq>, so
// concurrent joins never collide); -leave-every k removes the oldest
// agent that client previously joined, so the population oscillates
// instead of growing without bound. Join and leave latencies are
// reported as their own kinds, separating the structural drift path
// from scalar weight nudges.
//
// -churn precedes every round advance with a drift that mints a fresh,
// never-repeating weight for every agent, so no design fingerprint
// survives between rounds and each advance runs the engine's cold design
// path end to end (the all-cold steady state of churning marketplaces
// and bandit policies).
//
// -journal-check file is the client half of contractd's durability
// contract. On a fresh file, every acknowledged round-advance response is
// recorded (with full outcomes) and written to the file alongside the
// session ID at exit. When the file already exists — after killing and
// restarting a contractd on the same -journal-dir — loadgen first fetches
// the recovered session's ledger and requires every recorded round to
// come back byte-identical before driving new load against the same
// session (and re-saving the grown record set). Against an -journal-sync
// fsync server a verification failure is a durability bug; in buffered
// mode an un-flushed suffix may legitimately be missing.
//
// With -healthcheck it instead polls /healthz until the server answers 200
// (exit 0) or the timeout passes (exit 1) — a curl-free readiness probe
// for scripts.
//
// Every request carries a unique X-Request-Id; against a contractd running
// with -trace, the summary's failure and p99-outlier lines name the ids to
// fetch from /debug/traces?id= for the full span tree of the offending
// request.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"dyncontract/internal/server"
	"dyncontract/internal/spans"
	"dyncontract/internal/synth"
	"dyncontract/internal/synthpop"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// result is one request's fate. id is the X-Request-Id the request
// carried — against a contractd running with -trace, fetching
// /debug/traces?id=<id> returns that request's span tree, so the summary
// prints the ids of failures and latency outliers.
type result struct {
	kind    string // "round", "design", "drift", "join", or "leave"
	status  int    // 0 on transport error
	latency time.Duration
	id      string
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "http://127.0.0.1:8080", "contractd base URL")
		healthcheck = fs.Bool("healthcheck", false, "poll /healthz until ready, then exit")
		healthTO    = fs.Duration("healthcheck-timeout", 10*time.Second, "healthcheck deadline")
		clients     = fs.Int("clients", 8, "concurrent clients")
		duration    = fs.Duration("duration", 3*time.Second, "run length (ignored when -requests > 0)")
		requests    = fs.Int("requests", 0, "requests per client (0 = run for -duration)")
		rate        = fs.Float64("rate", 0, "open-loop total arrivals per second (0 = closed loop)")
		roundEvery  = fs.Int("round-every", 10, "every k-th request advances a round (0 = designs only)")
		weights     = fs.Int("weights", 4, "distinct feedback weights cycled through design queries")
		driftEvery  = fs.Int("drift-every", 0, "every k-th non-round request issues a sparse drift (0 = no drifts)")
		driftAgents = fs.Int("drift-agents", 1, "agents mutated per drift request (rotated round-robin over the session)")
		churn       = fs.Bool("churn", false, "precede every round advance with a fresh-weights drift for all agents (all-cold design rounds)")
		joinEvery   = fs.Int("join-every", 0, "every k-th non-round request joins a fresh agent (0 = no joins)")
		leaveEvery  = fs.Int("leave-every", 0, "every k-th non-round request removes this client's oldest joined agent (0 = no leaves)")
		scale       = fs.String("scale", "", "post the synthpop pipeline's population at this scale (small or paper) instead of the inline one")
		seed        = fs.Int64("seed", 42, "-scale pipeline seed")
		perClass    = fs.Int("per-class", 50, "-scale agents sampled per class")
		strict      = fs.Bool("strict", false, "fail on any transport error or non-2xx/429 status")
		jcheck      = fs.String("journal-check", "", "record acknowledged rounds to this state file; when it exists, verify them byte-for-byte against the recovered ledger first")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	client := &http.Client{Timeout: 30 * time.Second}

	if *healthcheck {
		return waitHealthy(client, *addr, *healthTO, out)
	}
	if *weights < 1 {
		*weights = 1
	}

	jc, err := loadJournalChecker(*jcheck)
	if err != nil {
		return err
	}
	// The create body is built even when a recorded session is resumed:
	// probes and joiners are copies of its first honest agent.
	create, err := createRequest(*scale, *seed, *perClass)
	if err != nil {
		return err
	}
	honest, err := firstHonest(create.Agents)
	if err != nil {
		return err
	}
	var sessID string
	if jc != nil && jc.Session != "" {
		// A prior run recorded this session: the server was restarted over
		// its journal, so the recovered ledger must serve every recorded
		// round byte-identical before any new load rides on it.
		sessID = jc.Session
		if err := jc.verify(client, *addr, out); err != nil {
			return err
		}
	} else {
		if sessID, err = createSession(client, *addr, &create); err != nil {
			return err
		}
		if jc != nil {
			jc.Session = sessID
		}
	}
	// Drift requests mutate real agents, so harvest the session's agent
	// IDs and current weights from a priming round — robust for a resumed
	// session, which earlier drifts may have changed.
	var driftIDs []string
	driftBase := map[string]float64{}
	if *driftEvery > 0 || *churn {
		if *driftAgents < 1 {
			*driftAgents = 1
		}
		driftIDs, driftBase, err = harvestAgents(client, *addr, sessID)
		if err != nil {
			return err
		}
		if *driftAgents > len(driftIDs) {
			*driftAgents = len(driftIDs)
		}
	}
	fmt.Fprintf(out, "loadgen: session %s at %s; %d clients, ", sessID, *addr, *clients)
	if *rate > 0 {
		fmt.Fprintf(out, "open loop at %.0f req/s, ", *rate)
	} else {
		fmt.Fprint(out, "closed loop, ")
	}
	if *requests > 0 {
		fmt.Fprintf(out, "%d requests/client\n", *requests)
	} else {
		fmt.Fprintf(out, "%s\n", *duration)
	}

	// Open loop: a token channel paced by a global ticker; clients consume
	// tokens. A full channel means the fleet cannot keep up — those
	// arrivals are counted, not silently absorbed into the pacing.
	var tokens chan struct{}
	var overload int64
	var overloadMu sync.Mutex
	stop := make(chan struct{})
	if *rate > 0 {
		tokens = make(chan struct{}, (*clients)*4)
		interval := time.Duration(float64(time.Second) / *rate)
		if interval <= 0 {
			interval = time.Microsecond
		}
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					select {
					case tokens <- struct{}{}:
					default:
						overloadMu.Lock()
						overload++
						overloadMu.Unlock()
					}
				}
			}
		}()
	}

	start := time.Now()
	deadline := start.Add(*duration)
	resCh := make(chan []result, *clients)
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var res []result
			// Structural churn state: agents this client has joined (and
			// not yet removed), in join order. IDs are namespaced by
			// client so concurrent joiners never race on one agent.
			var joined []string
			joinSeq := 0
			for i := 0; ; i++ {
				if *requests > 0 {
					if i >= *requests {
						break
					}
				} else if time.Now().After(deadline) {
					break
				}
				if tokens != nil {
					select {
					case <-tokens:
					case <-time.After(time.Until(deadline)):
						break
					}
					if *requests == 0 && time.Now().After(deadline) {
						break
					}
				}
				n := c*1_000_000 + i
				reqID := fmt.Sprintf("loadgen-%d", n)
				if *roundEvery > 0 && n%*roundEvery == 0 {
					if *churn {
						// Mint a fresh fingerprint for every agent: the
						// perturbation is unique per request (n never
						// repeats), so the following round's designs are
						// all cold. The factor stays within ±12% of base
						// over any plausible run, keeping weights valid.
						w := make(map[string]float64, len(driftIDs))
						for _, id := range driftIDs {
							w[id] = driftBase[id] * (1 + 1e-8*float64(n+1))
						}
						res = append(res, doJSON(client, "drift", *addr+"/v1/sessions/"+sessID+"/drift", server.DriftRequest{Weights: w}, reqID+"-churn"))
					}
					roundReq := server.AdvanceRoundRequest{IncludeOutcomes: jc != nil}
					r, body := doJSONCapture(client, "round", *addr+"/v1/sessions/"+sessID+"/rounds", roundReq, reqID)
					if jc != nil && r.status == http.StatusOK {
						jc.record(body)
					}
					res = append(res, r)
				} else if *joinEvery > 0 && i%*joinEvery == 0 {
					// Join a fresh copy of the session's first honest
					// agent: its psi is valid on the session's partition,
					// and the contract cache can serve it by fingerprint.
					joiner := honest
					joiner.ID = fmt.Sprintf("lg-%d-%d", c, joinSeq)
					joinSeq++
					r := doJSON(client, "join", *addr+"/v1/sessions/"+sessID+"/drift", server.DriftRequest{
						Add: []server.AgentSpec{joiner},
					}, reqID)
					if r.status >= 200 && r.status < 300 {
						joined = append(joined, joiner.ID)
					}
					res = append(res, r)
				} else if *leaveEvery > 0 && i%*leaveEvery == *leaveEvery-1 && len(joined) > 0 {
					// The leave cadence is offset to the end of its period
					// so -join-every k -leave-every k alternates instead of
					// joins always shadowing leaves on the same slots.
					// Remove this client's oldest joined agent; only
					// successfully joined ids are ever removed, so the
					// request cannot 404 on an unknown agent.
					id := joined[0]
					r := doJSON(client, "leave", *addr+"/v1/sessions/"+sessID+"/drift", server.DriftRequest{
						Remove: []string{id},
					}, reqID)
					if r.status >= 200 && r.status < 300 {
						joined = joined[1:]
					}
					res = append(res, r)
				} else if *driftEvery > 0 && n%*driftEvery == 0 {
					// Sparse drift: nudge k agents' weights around their
					// base, rotating the window so the whole session
					// drifts over a long soak. Values oscillate, never
					// compound, so the session stays valid indefinitely.
					w := map[string]float64{}
					for j := 0; j < *driftAgents; j++ {
						id := driftIDs[(n+j)%len(driftIDs)]
						w[id] = driftBase[id] * (1 + 0.01*float64(n%3))
					}
					res = append(res, doJSON(client, "drift", *addr+"/v1/sessions/"+sessID+"/drift", server.DriftRequest{Weights: w}, reqID))
				} else {
					probe := honest
					probe.ID, probe.Weight = "probe", 0.5+0.25*float64(n%*weights)
					q := server.DesignQueryRequest{Agent: &probe}
					res = append(res, doJSON(client, "design", *addr+"/v1/sessions/"+sessID+"/design", q, reqID))
				}
			}
			resCh <- res
		}(c)
	}
	wg.Wait()
	close(stop)
	close(resCh)
	elapsed := time.Since(start)

	var all []result
	for res := range resCh {
		all = append(all, res...)
	}
	if jc != nil {
		if err := jc.save(*jcheck); err != nil {
			return err
		}
		fmt.Fprintf(out, "loadgen: journal-check: %d acknowledged rounds recorded to %s\n", len(jc.Rounds), *jcheck)
	}
	return summarize(out, all, elapsed, overload, *strict)
}

// waitHealthy polls /healthz until 200 or the deadline.
func waitHealthy(client *http.Client, addr string, timeout time.Duration, out io.Writer) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				fmt.Fprintln(out, "loadgen: server healthy")
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("healthcheck: %w", err)
			}
			return fmt.Errorf("healthcheck: server not healthy within %s", timeout)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// createRequest builds the create body. With scale it is the synthpop
// pipeline's population for the scale and seed, built here and posted as
// explicit agents; without, a four-agent inline population.
func createRequest(scale string, seed int64, perClass int) (server.CreateSessionRequest, error) {
	var cfg synth.Config
	switch scale {
	case "":
		psi := server.PsiSpec{R2: -0.25, R1: 2}
		return server.CreateSessionRequest{
			Agents: []server.AgentSpec{
				{ID: "h1", Class: "honest", Psi: psi, Beta: 1, Weight: 1},
				{ID: "h2", Class: "honest", Psi: psi, Beta: 1.2, Weight: 1},
				{ID: "m1", Class: "malicious", Psi: psi, Beta: 1, Omega: 0.5, Weight: 0.8, Malice: 0.9},
				{ID: "c1", Class: "community", Psi: psi, Beta: 1, Omega: 0.3, Size: 3, Weight: 0.5},
			},
			M: 10, Delta: 0.2, Mu: 1,
		}, nil
	case "small":
		cfg = synth.SmallScale(seed)
	case "paper":
		cfg = synth.PaperScale(seed)
	default:
		return server.CreateSessionRequest{}, fmt.Errorf("-scale %q: want small or paper", scale)
	}
	pipe, err := synthpop.BuildPipeline(cfg)
	if err != nil {
		return server.CreateSessionRequest{}, err
	}
	pop, err := pipe.BuildPopulation(synthpop.DefaultParams(), perClass)
	if err != nil {
		return server.CreateSessionRequest{}, err
	}
	req := server.CreateSessionRequest{M: pop.Part.M, Delta: pop.Part.Delta, Mu: pop.Mu}
	for _, a := range pop.Agents {
		req.Agents = append(req.Agents, server.AgentSpecOf(a, pop.Weights[a.ID], pop.MaliceProb[a.ID]))
	}
	return req, nil
}

// firstHonest returns the population's first honest agent.
func firstHonest(agents []server.AgentSpec) (server.AgentSpec, error) {
	for _, a := range agents {
		if a.Class == "honest" {
			return a, nil
		}
	}
	return server.AgentSpec{}, fmt.Errorf("the population has no honest agent")
}

// createSession posts req and returns the new session's ID.
func createSession(client *http.Client, addr string, req *server.CreateSessionRequest) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	resp, err := client.Post(addr+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("create session: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("create session: status %d: %s", resp.StatusCode, raw)
	}
	var created server.CreateSessionResponse
	if err := json.Unmarshal(raw, &created); err != nil {
		return "", fmt.Errorf("create session: decode %q: %w", raw, err)
	}
	return created.ID, nil
}

// harvestAgents advances one priming round with outcomes included and
// returns the session's agent IDs plus their current feedback weights —
// the base values drift requests oscillate around.
func harvestAgents(client *http.Client, addr, sessID string) ([]string, map[string]float64, error) {
	body, err := json.Marshal(server.AdvanceRoundRequest{IncludeOutcomes: true})
	if err != nil {
		return nil, nil, err
	}
	resp, err := client.Post(addr+"/v1/sessions/"+sessID+"/rounds", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, fmt.Errorf("priming round: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("priming round: status %d: %s", resp.StatusCode, raw)
	}
	var round server.RoundJSON
	if err := json.Unmarshal(raw, &round); err != nil {
		return nil, nil, fmt.Errorf("priming round: decode %q: %w", raw, err)
	}
	ids := make([]string, 0, len(round.Outcomes))
	base := make(map[string]float64, len(round.Outcomes))
	for _, o := range round.Outcomes {
		ids = append(ids, o.AgentID)
		base[o.AgentID] = o.Weight
	}
	if len(ids) == 0 {
		return nil, nil, fmt.Errorf("priming round: no agent outcomes returned")
	}
	return ids, base, nil
}

// doJSON issues one POST carrying reqID as X-Request-Id and records its
// fate; bodies are drained so the client reuses connections.
func doJSON(client *http.Client, kind, url string, payload any, reqID string) result {
	r, _ := doJSONCapture(client, kind, url, payload, reqID)
	return r
}

// doJSONCapture is doJSON keeping the response body — the round recorder
// needs the acknowledged bytes, not just the status.
func doJSONCapture(client *http.Client, kind, url string, payload any, reqID string) (result, []byte) {
	body, err := json.Marshal(payload)
	if err != nil {
		return result{kind: kind, id: reqID}, nil
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return result{kind: kind, id: reqID}, nil
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(spans.HeaderRequestID, reqID)
	start := time.Now()
	resp, err := client.Do(req)
	lat := time.Since(start)
	if err != nil {
		return result{kind: kind, latency: lat, id: reqID}, nil
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return result{kind: kind, latency: lat, id: reqID}, nil
	}
	return result{kind: kind, status: resp.StatusCode, latency: lat, id: reqID}, raw
}

// journalChecker is the client half of the server's durability contract:
// it remembers every acknowledged round-advance response, keyed by round
// index, and after a restart requires the recovered ledger to serve each
// one byte-identical.
type journalChecker struct {
	mu sync.Mutex

	// Session is the session the rounds belong to.
	Session string `json:"session"`
	// Rounds maps round index to the acknowledged response body.
	Rounds map[string]json.RawMessage `json:"rounds"`
}

// loadJournalChecker reads the state file, returning a fresh recorder
// when the file does not exist yet and nil when the feature is off.
func loadJournalChecker(path string) (*journalChecker, error) {
	if path == "" {
		return nil, nil
	}
	jc := &journalChecker{Rounds: map[string]json.RawMessage{}}
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return jc, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal-check: %w", err)
	}
	if err := json.Unmarshal(raw, jc); err != nil {
		return nil, fmt.Errorf("journal-check: decode %s: %w", path, err)
	}
	if jc.Rounds == nil {
		jc.Rounds = map[string]json.RawMessage{}
	}
	return jc, nil
}

// record stores one acknowledged round response under its round index.
func (jc *journalChecker) record(body []byte) {
	var hdr struct {
		Round int `json:"round"`
	}
	if json.Unmarshal(body, &hdr) != nil {
		return
	}
	jc.mu.Lock()
	jc.Rounds[strconv.Itoa(hdr.Round)] = json.RawMessage(bytes.TrimSpace(body))
	jc.mu.Unlock()
}

// save writes the state file for the next run to verify against.
func (jc *journalChecker) save(path string) error {
	jc.mu.Lock()
	raw, err := json.Marshal(jc)
	jc.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("journal-check: %w", err)
	}
	return nil
}

// verify fetches the recovered session's ledger and requires every
// recorded round to come back byte-identical at its index.
func (jc *journalChecker) verify(client *http.Client, addr string, out io.Writer) error {
	resp, err := client.Get(addr + "/v1/sessions/" + jc.Session + "/rounds")
	if err != nil {
		return fmt.Errorf("journal-check: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("journal-check: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("journal-check: session %s not recovered: status %d: %s", jc.Session, resp.StatusCode, raw)
	}
	var ledger []json.RawMessage
	if err := json.Unmarshal(raw, &ledger); err != nil {
		return fmt.Errorf("journal-check: decode ledger: %w", err)
	}
	for key, want := range jc.Rounds {
		idx, err := strconv.Atoi(key)
		if err != nil {
			return fmt.Errorf("journal-check: bad round key %q", key)
		}
		if idx >= len(ledger) {
			return fmt.Errorf("journal-check: acknowledged round %d missing from recovered ledger (%d rounds served)", idx, len(ledger))
		}
		if got := bytes.TrimSpace(ledger[idx]); !bytes.Equal(got, bytes.TrimSpace(want)) {
			return fmt.Errorf("journal-check: round %d differs after restart:\n  got %s\n want %s", idx, got, want)
		}
	}
	fmt.Fprintf(out, "loadgen: journal-check: %d acknowledged rounds verified byte-identical after restart\n", len(jc.Rounds))
	return nil
}

// summarize prints counts and latency percentiles, and enforces -strict.
func summarize(out io.Writer, all []result, elapsed time.Duration, overload int64, strict bool) error {
	type agg struct {
		ok, rejected, errors int
		lats                 []time.Duration
	}
	byKind := map[string]*agg{"round": {}, "design": {}, "drift": {}, "join": {}, "leave": {}}
	var lats []time.Duration
	for _, r := range all {
		a := byKind[r.kind]
		switch {
		case r.status >= 200 && r.status < 300:
			a.ok++
			a.lats = append(a.lats, r.latency)
			lats = append(lats, r.latency)
		case r.status == http.StatusTooManyRequests:
			a.rejected++
		default:
			a.errors++
		}
	}
	fmt.Fprintf(out, "loadgen: %d requests in %.2fs (%.1f req/s)\n",
		len(all), elapsed.Seconds(), float64(len(all))/elapsed.Seconds())
	for _, kind := range []string{"round", "design", "drift", "join", "leave"} {
		a := byKind[kind]
		if (kind == "join" || kind == "leave") && a.ok+a.rejected+a.errors == 0 {
			continue
		}
		fmt.Fprintf(out, "  %-7s %6d ok  %5d rejected (429)  %4d errors\n", kind+"s:", a.ok, a.rejected, a.errors)
	}
	if overload > 0 {
		fmt.Fprintf(out, "  open loop: %d arrivals dropped (clients saturated)\n", overload)
	}
	percentiles := func(ls []time.Duration) (p50, p95, p99, max time.Duration) {
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		pct := func(q float64) time.Duration { return ls[int(q*float64(len(ls)-1))] }
		return pct(0.50), pct(0.95), pct(0.99), ls[len(ls)-1]
	}
	if len(lats) > 0 {
		p50, p95, p99, max := percentiles(lats)
		fmt.Fprintf(out, "  latency: p50 %s  p95 %s  p99 %s  max %s\n",
			p50.Round(time.Microsecond), p95.Round(time.Microsecond),
			p99.Round(time.Microsecond), max.Round(time.Microsecond))
	}
	// Per-kind percentiles separate the drift path's latency from the
	// design fast path it shares the session lock with, and structural
	// joins/leaves from scalar weight drifts.
	for _, kind := range []string{"round", "design", "drift", "join", "leave"} {
		a := byKind[kind]
		if len(a.lats) == 0 {
			continue
		}
		p50, p95, p99, max := percentiles(a.lats)
		fmt.Fprintf(out, "  latency[%s]: p50 %s  p95 %s  p99 %s  max %s\n",
			kind, p50.Round(time.Microsecond), p95.Round(time.Microsecond),
			p99.Round(time.Microsecond), max.Round(time.Microsecond))
	}
	// Name the requests behind the tail: every id here resolves to a full
	// span tree at /debug/traces?id= when the server runs with -trace.
	if len(lats) > 0 {
		_, _, p99, _ := percentiles(lats)
		var outliers []result
		for _, r := range all {
			if r.status >= 200 && r.status < 300 && r.latency >= p99 {
				outliers = append(outliers, r)
			}
		}
		sort.Slice(outliers, func(i, j int) bool { return outliers[i].latency > outliers[j].latency })
		if len(outliers) > 5 {
			outliers = outliers[:5]
		}
		for _, r := range outliers {
			fmt.Fprintf(out, "  p99 outlier: %s %s %s (trace /debug/traces?id=%s)\n",
				r.kind, r.latency.Round(time.Microsecond), r.id, r.id)
		}
	}
	bad := 0
	for _, a := range byKind {
		bad += a.errors
	}
	if strict && bad > 0 {
		printed := 0
		for _, r := range all {
			if r.status >= 200 && r.status < 300 || r.status == http.StatusTooManyRequests {
				continue
			}
			fmt.Fprintf(out, "  failed: %s status=%d %s (trace /debug/traces?id=%s)\n",
				r.kind, r.status, r.id, r.id)
			if printed++; printed >= 8 {
				fmt.Fprintf(out, "  ... %d more failures\n", bad-printed)
				break
			}
		}
		return fmt.Errorf("strict: %d requests failed with transport errors or non-2xx/429 statuses", bad)
	}
	if len(all) == 0 {
		return fmt.Errorf("no requests issued")
	}
	return nil
}
