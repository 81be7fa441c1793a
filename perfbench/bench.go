package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dyncontract/internal/journal"
	"dyncontract/internal/server"
	"dyncontract/internal/telemetry"
)

// snapshotEvery is contractd's default -snapshot-every.
const snapshotEvery = 1024

// setupSamples is the number of identical session creations setup_s and
// restart ops on the serve workloads take their median over: a single
// sub-second sample moves by 15–28% between runs.
const setupSamples = 11

// batchWindow is contractd's default -batch-window: the design batcher
// holds a query this long for company before it designs, so with one
// client every design query waits the whole window.
const batchWindow = 2 * time.Millisecond

// served is one in-process server configured like contractd's defaults:
// metrics registry on, tracer off, buffered journal, snapshot every 1024
// commands. Requests go straight to its handler, with no sockets.
type served struct {
	srv *server.Server
	h   http.Handler
	reg *telemetry.Registry
	dir string
}

func startServer(dir string) (*served, error) {
	reg := telemetry.NewRegistry()
	st, err := journal.Open(dir, journal.Options{Mode: journal.ModeBuffered, Metrics: reg})
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Metrics: reg, Journal: st, SnapshotEvery: snapshotEvery, BatchWindow: batchWindow})
	return &served{srv: srv, h: srv.Handler(), reg: reg, dir: dir}, nil
}

// call is one answered request.
type call struct {
	code      int
	body      []byte
	wall, cpu time.Duration // cpu: the process's, all threads
}

func (c call) ok() bool { return c.code >= 200 && c.code < 300 }

func (s *served) do(method, path string, body []byte) call {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	c0, t0 := cpuNow(), time.Now()
	s.h.ServeHTTP(rec, req)
	wall, cpu := time.Since(t0), cpuNow()-c0
	return call{code: rec.Code, body: rec.Body.Bytes(), wall: wall, cpu: cpu}
}

// waitSnapshots waits until want snapshots have committed: a commit runs
// in the background and must neither race the journal's removal nor
// spill into the next timed phase.
func (s *served) waitSnapshots(want uint64) error {
	snaps := s.reg.Counter(journal.MetricSnapshots)
	deadline := time.Now().Add(60 * time.Second)
	for snaps.Value() < want && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := snaps.Value(); got < want {
		return fmt.Errorf("%d of %d snapshots committed", got, want)
	}
	return nil
}

// stop waits for want snapshots and drains the server. The journal stays
// on disk.
func (s *served) stop(want uint64) error {
	err := s.waitSnapshots(want)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if derr := s.srv.Drain(ctx); derr != nil && err == nil {
		err = derr
	}
	return err
}

// close stops the server and removes its journal.
func (s *served) close(want uint64) error {
	err := s.stop(want)
	if rerr := os.RemoveAll(s.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// tally counts one op kind's requests.
type tally struct{ attempted, failed int }

// opKinds lists the op kinds in report order.
var opKinds = []string{"create", "drift", "round", "design", "restart", "snapshot", "verify"}

// results accumulates one run's measurements.
type results struct {
	ms      map[string][]float64 // latency per step op kind net of steal, ms
	tallies map[string]*tally
	errs    []string // the first failures, for the report

	setup    []float64 // seconds, net of steal
	restart  []float64 // ms, net of steal
	heap     []float64 // MB, one per timed phase
	ledgerKB []float64 // live-heap growth per round, one per timed phase

	steps  int     // client steps in the timed phases
	cpuMs  float64 // process CPU time of their ops, net of steal
	rt     rtStats // runtime counters summed over the timed phases
	stolen uint64  // /proc/stat ticks stolen in the timed phases
	ticks  uint64  // /proc/stat ticks elapsed in the timed phases
}

func newResults() *results {
	r := &results{ms: make(map[string][]float64), tallies: make(map[string]*tally)}
	for _, k := range opKinds {
		r.tallies[k] = &tally{}
	}
	return r
}

// record tallies one op.
func (r *results) record(kind string, c call) {
	t := r.tallies[kind]
	t.attempted++
	if !c.ok() {
		r.fail(kind, fmt.Errorf("status %d: %s", c.code, bytes.TrimSpace(c.body)))
	}
}

// latency records a step op's wall time and its process CPU time as
// measured; the phase they belong to takes the host's steal out of both
// when it ends (see phase).
func (r *results) latency(kind string, c call) {
	if !c.ok() {
		return
	}
	r.ms[kind] = append(r.ms[kind], ms(c.wall))
	r.cpuMs += ms(c.cpu)
}

// fail records a failed op, or a failed check when kind is "verify".
func (r *results) fail(kind string, err error) {
	t := r.tallies[kind]
	if kind == "verify" {
		t.attempted++
	}
	t.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, kind+": "+err.Error())
	}
}

// check tallies one correctness check.
func (r *results) check(err error) {
	if err != nil {
		r.fail("verify", err)
		return
	}
	r.tallies["verify"].attempted++
}

// Steal. The VM's host takes 0–35% of its CPU time, in bursts, and the
// share changes over minutes. Process CPU time rises with steal as wall
// time does (the guest appears to bill stolen time to the thread it
// interrupted), so a stolen share s of an interval inflates both its wall
// and its CPU timings by about 1/(1−s). Every timing is therefore
// reported net of steal: multiplied by 1−s, with s the share of the
// machine's time (/proc/stat, all CPUs) stolen over the interval that
// held it — a timed phase, a group of set-up or young-restart samples, or
// one mature restart. /proc/stat counts in 10 ms ticks, so s is read over
// intervals of seconds, never per op.

// stolen is the share of the machine's time the host stole between two
// /proc/stat readings (0 when unknown).
func stolen(from, to cpuTimes) float64 {
	if to.total <= from.total {
		return 0
	}
	return float64(to.steal-from.steal) / float64(to.total-from.total)
}

// netOf takes steal share s out of a step op's wall time in ms. A design
// query's batch window is a timer, which steal does not stretch; only the
// time above it is netted.
func netOf(kind string, wallMs, s float64) float64 {
	if w := ms(batchWindow); kind == "design" && wallMs > w {
		return w + (wallMs-w)*(1-s)
	}
	return wallMs * (1 - s)
}

// absorb adds o's op tallies and failures to r, not its latencies: o
// counted ops run off the clock.
func (r *results) absorb(o *results) {
	for k, t := range o.tallies {
		r.tallies[k].attempted += t.attempted
		r.tallies[k].failed += t.failed
	}
	for _, e := range o.errs {
		if len(r.errs) < 10 {
			r.errs = append(r.errs, e)
		}
	}
}

func (r *results) failed() int {
	n := 0
	for _, t := range r.tallies {
		n += t.failed
	}
	return n
}

func (r *results) attempted() int {
	n := 0
	for _, t := range r.tallies {
		n += t.attempted
	}
	return n
}

// phase brackets a timed phase: a forced GC first, so garbage from set-up
// is not collected on the clock, then runtime and steal readings.
type phase struct {
	rt    rtStats
	ticks cpuTimes
	n     map[string]int // len(r.ms[kind]) when the phase began
	cpuMs float64        // r.cpuMs when the phase began
}

func beginPhase(r *results) phase {
	runtime.GC()
	p := phase{rt: readRuntime(), n: make(map[string]int), cpuMs: r.cpuMs}
	for kind, xs := range r.ms {
		p.n[kind] = len(xs)
	}
	p.ticks = readCPUTimes()
	return p
}

// end nets the phase's latencies and CPU time of steal, and adds its step
// count and its runtime and steal deltas to r.
func (p phase) end(r *results, steps int) {
	rt := readRuntime()
	ticks := readCPUTimes()
	s := stolen(p.ticks, ticks)
	for kind, xs := range r.ms {
		for i := p.n[kind]; i < len(xs); i++ {
			xs[i] = netOf(kind, xs[i], s)
		}
	}
	r.cpuMs = p.cpuMs + (r.cpuMs-p.cpuMs)*(1-s)
	r.steps += steps
	r.rt.gcCycles += rt.gcCycles - p.rt.gcCycles
	r.rt.mallocs += rt.mallocs - p.rt.mallocs
	r.rt.allocBytes += rt.allocBytes - p.rt.allocBytes
	r.rt.gcCPU += rt.gcCPU - p.rt.gcCPU
	r.rt.totalCPU += rt.totalCPU - p.rt.totalCPU
	r.stolen += ticks.steal - p.ticks.steal
	r.ticks += ticks.total - p.ticks.total
}

// decodeRound parses a POST …/rounds response.
func decodeRound(body []byte) (server.RoundJSON, error) {
	var rj server.RoundJSON
	err := json.Unmarshal(body, &rj)
	return rj, err
}

// createSession posts a create request and returns the session's path.
func createSession(s *served, r *results, body []byte) (string, bool) {
	c := s.do("POST", "/v1/sessions", body)
	r.record("create", c)
	if !c.ok() {
		return "", false
	}
	var resp server.CreateSessionResponse
	if err := json.Unmarshal(c.body, &resp); err != nil {
		r.fail("create", err)
		return "", false
	}
	return "/v1/sessions/" + resp.ID, true
}

// round advances path one round, counted as an op of kind, and checks it
// against want.
func round(s *served, r *results, kind, path string, want summary) call {
	c := s.do("POST", path+"/rounds", roundBody)
	r.record(kind, c)
	if c.ok() {
		rj, err := decodeRound(c.body)
		if err == nil {
			err = sameRound(rj, want)
		}
		r.check(err)
	}
	return c
}

// setupPhase times setupSamples identical session creations, each up to
// its first round answered, nets them of the steal over all of them, and
// checks every first round. It leaves the first session's journal in
// image: the crash image of a young session.
func setupPhase(dir, image string, r *results, create []byte, first summary) error {
	s, err := startServer(dir)
	if err != nil {
		return err
	}
	var firstPath string
	var samples []float64
	t := readCPUTimes()
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		t0 := time.Now()
		path, ok := createSession(s, r, create)
		if !ok {
			break
		}
		if c := round(s, r, "create", path, first); !c.ok() {
			break
		}
		samples = append(samples, time.Since(t0).Seconds())
		if i == 0 {
			firstPath = path
		}
	}
	st := stolen(t, readCPUTimes())
	for _, x := range samples {
		r.setup = append(r.setup, x*(1-st))
	}
	err = s.stop(0)
	if err == nil && firstPath != "" && image != "" {
		id := filepath.Base(firstPath)
		err = copyDir(filepath.Join(dir, id), filepath.Join(image, id))
	}
	if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// copyDir copies a journal directory tree byte for byte: the disk image a
// crash at this instant would leave.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// restartOp is one restart: copy the crash image, start a fresh server
// over the copy, recover, and answer the first round, which must equal
// first. It returns the running server (the caller stops it), the
// recovered session's path ("" when the restart failed) and the restart's
// wall time in ms, as measured: the caller nets it of steal.
func restartOp(image, dir string, r *results, first summary, tr *recorder, trace uint64) (*served, string, float64, error) {
	runtime.GC()
	root := tr.begin("restart", trace, 0)
	t0 := time.Now()
	var err error
	tr.timed("restart.copy", trace, root, func() { err = copyDir(image, dir) })
	if err != nil {
		return nil, "", 0, err
	}
	s, err := startServer(dir)
	if err != nil {
		return nil, "", 0, err
	}
	var stats server.RecoveryStats
	tr.timed("server.recover", trace, root, func() { stats, err = s.srv.Recover() })
	if err == nil && (stats.Sessions != 1 || stats.Failed != 0) {
		err = fmt.Errorf("recovered %d sessions, %d failed; want 1, 0", stats.Sessions, stats.Failed)
	}
	if err != nil {
		r.tallies["restart"].attempted++
		r.fail("restart", err)
		return s, "", 0, nil
	}
	ids, err := sessionIDs(dir)
	if err != nil || len(ids) != 1 {
		r.tallies["restart"].attempted++
		r.fail("restart", fmt.Errorf("session dirs %v: %v", ids, err))
		return s, "", 0, nil
	}
	path := "/v1/sessions/" + ids[0]
	rid := tr.begin("server.round", trace, root)
	c := round(s, r, "restart", path, first)
	tr.end(rid)
	tr.end(root)
	if !c.ok() {
		return s, "", 0, nil
	}
	return s, path, ms(time.Since(t0)), nil
}

func sessionIDs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	return ids, nil
}
