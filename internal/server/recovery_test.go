package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"dyncontract/internal/journal"
)

// newJournaledServer wires a testServer over a strict-mode journal store
// rooted at dir. Strict mode makes every served response durable, so a
// copy of dir taken between requests is exactly the disk image a kill -9
// would leave behind.
func newJournaledServer(t *testing.T, dir string, cfg Config) *testServer {
	t.Helper()
	st, err := journal.Open(dir, journal.Options{Mode: journal.ModeStrict})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = st
	return newTestServer(t, cfg)
}

// recoverServer boots a fresh server over an existing journal directory
// and runs recovery, the same sequence contractd performs before
// listening.
func recoverServer(t *testing.T, dir string, cfg Config) (*testServer, RecoveryStats) {
	t.Helper()
	e := newJournaledServer(t, dir, cfg)
	stats, err := e.srv.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return e, stats
}

// crashImage copies the journal directory byte for byte — the disk state
// a kill -9 at this instant would leave — so recovery runs against a
// frozen image while the original server keeps serving as the
// uninterrupted reference.
func crashImage(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
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
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// ledgerBytes fetches a session's full audit ledger as raw JSON — the
// byte-identical currency every recovery assertion trades in.
func ledgerBytes(t *testing.T, e *testServer, id string) []byte {
	t.Helper()
	resp, err := e.ts.Client().Get(e.ts.URL + "/v1/sessions/" + id + "/rounds")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list rounds: status %d: %s", resp.StatusCode, raw)
	}
	return raw
}

// advanceRounds advances n rounds, failing the test on any non-200.
func advanceRounds(t *testing.T, e *testServer, id string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		req := AdvanceRoundRequest{IncludeOutcomes: true}
		if code := e.do(t, "POST", "/v1/sessions/"+id+"/rounds", &req, nil); code != http.StatusOK {
			t.Fatalf("round %d: status %d", i, code)
		}
	}
}

// walSegments lists a session's log segments in sequence order.
func walSegments(t *testing.T, dir, id string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, id, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatalf("no wal segments under %s/%s", dir, id)
	}
	sort.Strings(segs)
	return segs
}

// TestRecoverByteIdenticalLedger is the durability acceptance test: a
// session driven through mixed traffic — rounds, a structural drift,
// more rounds — is recovered from a crash image with a byte-identical
// ledger, and keeps producing byte-identical rounds after recovery.
func TestRecoverByteIdenticalLedger(t *testing.T) {
	dir := t.TempDir()
	e1 := newJournaledServer(t, dir, Config{})
	id := e1.createSession(t)

	advanceRounds(t, e1, id, 3)
	drift := DriftRequest{
		Weights: map[string]float64{"h1": 1.4},
		Add: []AgentSpec{{
			ID: "h3", Class: "honest",
			Psi: PsiSpec{R2: -0.25, R1: 2}, Beta: 1.1, Weight: 0.9,
		}},
		Remove: []string{"m1"},
	}
	if code := e1.do(t, "POST", "/v1/sessions/"+id+"/drift", &drift, nil); code != http.StatusOK {
		t.Fatalf("drift: status %d", code)
	}
	advanceRounds(t, e1, id, 2)
	ref := ledgerBytes(t, e1, id)

	e2, stats := recoverServer(t, crashImage(t, dir), Config{})
	if stats.Sessions != 1 || stats.Failed != 0 {
		t.Fatalf("recovery stats = %+v, want 1 session, 0 failed", stats)
	}
	if stats.Replayed != 6 {
		t.Errorf("replayed %d commands, want 6 (5 rounds + 1 drift)", stats.Replayed)
	}
	if got := ledgerBytes(t, e2, id); string(got) != string(ref) {
		t.Fatalf("recovered ledger differs:\n got %s\nwant %s", got, ref)
	}

	var info SessionInfo
	if code := e2.do(t, "GET", "/v1/sessions/"+id, nil, &info); code != http.StatusOK {
		t.Fatalf("get session: status %d", code)
	}
	if info.Journal == nil || !info.Journal.Recovered || info.Journal.Replayed != 6 {
		t.Errorf("journal info = %+v, want recovered with 6 replayed", info.Journal)
	}

	// The recovered session is live, not an archive: both servers advance
	// two more rounds and stay byte-identical.
	advanceRounds(t, e1, id, 2)
	advanceRounds(t, e2, id, 2)
	if got, want := ledgerBytes(t, e2, id), ledgerBytes(t, e1, id); string(got) != string(want) {
		t.Errorf("post-recovery rounds diverge:\n got %s\nwant %s", got, want)
	}

	// Fresh IDs are minted past the recovered history — no collision with
	// the journal directory on disk.
	var created CreateSessionResponse
	req := testCreateReq()
	if code := e2.do(t, "POST", "/v1/sessions", &req, &created); code != http.StatusCreated {
		t.Fatalf("create after recovery: status %d", code)
	}
	if created.ID == id {
		t.Fatalf("recovered server re-minted live session ID %s", id)
	}
}

// TestRecoverIgnoredShards pins the create body's "shards" knob as
// accepted and held nowhere: a new snapshot omits it; a journal whose
// create record carries "shards":4, and a snapshot written before the
// knob left snapshots (one that still stores it), each recover to the
// ledger of a session created without it; and an out-of-range value
// still answers 400.
func TestRecoverIgnoredShards(t *testing.T) {
	dir := t.TempDir()
	e1 := newJournaledServer(t, dir, Config{})
	req := testCreateReq()
	req.Shards = 4
	var created CreateSessionResponse
	if code := e1.do(t, "POST", "/v1/sessions", &req, &created); code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	id := created.ID
	advanceRounds(t, e1, id, 3)
	journalOnly := crashImage(t, dir)
	if code := e1.do(t, "POST", "/v1/sessions/"+id+"/snapshot", nil, nil); code != http.StatusOK {
		t.Fatalf("snapshot: status %d", code)
	}
	advanceRounds(t, e1, id, 2)
	ref := ledgerBytes(t, e1, id)

	plain := newTestServer(t, Config{})
	pid := plain.createSession(t)
	advanceRounds(t, plain, pid, 5)
	if got := ledgerBytes(t, plain, pid); string(got) != string(ref) {
		t.Fatalf("ledger with shards=4 differs from one without:\n got %s\nwant %s", ref, got)
	}

	// The create record carries the knob; recovery replays it and the
	// session goes on to the same ledger.
	e2, stats := recoverServer(t, journalOnly, Config{})
	if stats.Sessions != 1 || stats.Failed != 0 {
		t.Fatalf("journal-only recovery stats = %+v, want 1 session, 0 failed", stats)
	}
	advanceRounds(t, e2, id, 2)
	if got := ledgerBytes(t, e2, id); string(got) != string(ref) {
		t.Errorf("journal-only recovery differs:\n got %s\nwant %s", got, ref)
	}

	// A new snapshot omits the knob. Rewrite it in the pre-change form,
	// "shards" between "amount" and "m", and recover across it.
	img := crashImage(t, dir)
	st, err := journal.Open(img, journal.Options{Mode: journal.ModeStrict})
	if err != nil {
		t.Fatal(err)
	}
	recs, failed, err := st.Recover()
	if err != nil || len(failed) != 0 || len(recs) != 1 || recs[0].Snapshot == nil {
		t.Fatalf("recover: %v, %d failed, %d sessions", err, len(failed), len(recs))
	}
	snap := recs[0].Snapshot
	if bytes.Contains(snap, []byte(`"shards"`)) {
		t.Fatalf("new snapshot stores the ignored knob: %s", snap)
	}
	old := bytes.Replace(snap, []byte(`,"m":`), []byte(`,"shards":4,"m":`), 1)
	if bytes.Equal(old, snap) {
		t.Fatalf("no \"m\" field to put \"shards\" before: %s", snap)
	}
	jw, err := st.Resume(id, recs[0].LastSeq)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.CommitSnapshot(recs[0].SnapshotSeq, old); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	e3, stats := recoverServer(t, img, Config{})
	if stats.Sessions != 1 || stats.Failed != 0 {
		t.Fatalf("pre-change snapshot recovery stats = %+v, want 1 session, 0 failed", stats)
	}
	if got := ledgerBytes(t, e3, id); string(got) != string(ref) {
		t.Errorf("pre-change snapshot recovery differs:\n got %s\nwant %s", got, ref)
	}

	req.Shards = 2000
	if code := e1.do(t, "POST", "/v1/sessions", &req, nil); code != http.StatusBadRequest {
		t.Errorf("shards=2000: status %d, want 400", code)
	}
}

// TestRecoverFromSnapshot pins the snapshot path: a forced snapshot
// truncates the log, recovery restores from it and replays only the
// commands behind it, and the ledger still comes back byte-identical.
func TestRecoverFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	e1 := newJournaledServer(t, dir, Config{})
	id := e1.createSession(t)

	advanceRounds(t, e1, id, 3)
	var snap SnapshotResponse
	if code := e1.do(t, "POST", "/v1/sessions/"+id+"/snapshot", nil, &snap); code != http.StatusOK {
		t.Fatalf("snapshot: status %d", code)
	}
	if snap.Rounds != 3 || snap.Seq == 0 || snap.Bytes == 0 {
		t.Fatalf("snapshot response = %+v, want 3 rounds at a positive seq", snap)
	}
	advanceRounds(t, e1, id, 2)
	ref := ledgerBytes(t, e1, id)

	e2, stats := recoverServer(t, crashImage(t, dir), Config{})
	if stats.Sessions != 1 || stats.Failed != 0 {
		t.Fatalf("recovery stats = %+v, want 1 session, 0 failed", stats)
	}
	if stats.Replayed != 2 {
		t.Errorf("replayed %d commands, want 2 (rounds behind the snapshot)", stats.Replayed)
	}
	if got := ledgerBytes(t, e2, id); string(got) != string(ref) {
		t.Fatalf("recovered ledger differs:\n got %s\nwant %s", got, ref)
	}
}

// TestRecoverAutoSnapshot drives a session past the SnapshotEvery
// cadence, waits for the background commit, and recovers from the
// compacted journal.
func TestRecoverAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	e1 := newJournaledServer(t, dir, Config{SnapshotEvery: 3})
	id := e1.createSession(t)
	advanceRounds(t, e1, id, 4)
	ref := ledgerBytes(t, e1, id)

	// The auto-snapshot commits on a background goroutine; wait until it
	// has finished. CommitSnapshot renames the snapshot into place before
	// it deletes the segments it supersedes, so a visible snapshot alone
	// does not make the directory stable: wait for snapBusy to clear too.
	e1.srv.mu.Lock()
	sess := e1.srv.sessions[id]
	e1.srv.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		snaps, err := filepath.Glob(filepath.Join(dir, id, "snap-*.snap"))
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) > 0 && !sess.snapBusy.Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("auto-snapshot never committed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	e2, stats := recoverServer(t, crashImage(t, dir), Config{})
	if stats.Sessions != 1 || stats.Failed != 0 {
		t.Fatalf("recovery stats = %+v, want 1 session, 0 failed", stats)
	}
	// The snapshot covers the create plus the first three rounds; only
	// the fourth replays.
	if stats.Replayed != 1 {
		t.Errorf("replayed %d commands, want 1", stats.Replayed)
	}
	if got := ledgerBytes(t, e2, id); string(got) != string(ref) {
		t.Fatalf("recovered ledger differs:\n got %s\nwant %s", got, ref)
	}
}

// TestRecoverTornTail truncates the final record mid-frame — the shape a
// kill -9 during an append leaves — and checks recovery degrades to the
// longest clean prefix instead of failing.
func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	e1 := newJournaledServer(t, dir, Config{})
	id := e1.createSession(t)
	advanceRounds(t, e1, id, 4)

	var ref []json.RawMessage
	if err := json.Unmarshal(ledgerBytes(t, e1, id), &ref); err != nil {
		t.Fatal(err)
	}

	image := crashImage(t, dir)
	segs := walSegments(t, image, id)
	last := segs[len(segs)-1]
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	e2, stats := recoverServer(t, image, Config{})
	if stats.Sessions != 1 || stats.Failed != 0 {
		t.Fatalf("recovery stats = %+v, want 1 session, 0 failed", stats)
	}
	var got []json.RawMessage
	if err := json.Unmarshal(ledgerBytes(t, e2, id), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref)-1 {
		t.Fatalf("torn tail recovered %d rounds, want %d", len(got), len(ref)-1)
	}
	for i := range got {
		if string(got[i]) != string(ref[i]) {
			t.Fatalf("round %d differs after torn-tail recovery:\n got %s\nwant %s", i, got[i], ref[i])
		}
	}
}

// TestRecoverRandomizedTruncation sweeps kill points across the log: a
// journal truncated at any byte offset past the create record must
// recover to a byte-identical prefix of the uninterrupted history —
// frame boundaries and mid-frame tears alike.
func TestRecoverRandomizedTruncation(t *testing.T) {
	dir := t.TempDir()
	e1 := newJournaledServer(t, dir, Config{})
	id := e1.createSession(t)
	advanceRounds(t, e1, id, 5)

	var ref []json.RawMessage
	if err := json.Unmarshal(ledgerBytes(t, e1, id), &ref); err != nil {
		t.Fatal(err)
	}

	seg := walSegments(t, dir, id)[0]
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(raw))
	// First frame = 8-byte header + payload; truncating inside the create
	// record is the no-create corrupt case, covered elsewhere.
	firstEnd := int64(8 + binary.LittleEndian.Uint32(raw[:4]))

	// A deterministic spread of kill points: frame-exact at firstEnd and
	// size, mid-frame everywhere between.
	var cuts []int64
	for k := int64(0); k <= 6; k++ {
		cuts = append(cuts, firstEnd+k*(size-firstEnd)/6)
	}
	cuts = append(cuts, firstEnd+7, size-1)

	for _, cut := range cuts {
		image := crashImage(t, dir)
		if err := os.Truncate(filepath.Join(image, id, filepath.Base(seg)), cut); err != nil {
			t.Fatal(err)
		}
		e2, stats := recoverServer(t, image, Config{})
		if stats.Sessions != 1 || stats.Failed != 0 {
			t.Fatalf("cut %d: recovery stats = %+v, want 1 session, 0 failed", cut, stats)
		}
		var got []json.RawMessage
		if err := json.Unmarshal(ledgerBytes(t, e2, id), &got); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got) > len(ref) {
			t.Fatalf("cut %d: recovered %d rounds from a %d-round history", cut, len(got), len(ref))
		}
		for i := range got {
			if string(got[i]) != string(ref[i]) {
				t.Fatalf("cut %d: round %d differs:\n got %s\nwant %s", cut, i, got[i], ref[i])
			}
		}
		if cut == size && len(got) != len(ref) {
			t.Fatalf("uncut image recovered %d rounds, want %d", len(got), len(ref))
		}
	}
}

// TestRecoverCorruptMidLogFailsOnlyThatSession flips a byte in the
// middle of one session's log — data behind the damage means truncation
// would silently lose acknowledged history, so that session must fail —
// and checks the blast radius stops there: the sibling session recovers
// byte-identical and fresh IDs skip the dead journal.
func TestRecoverCorruptMidLogFailsOnlyThatSession(t *testing.T) {
	dir := t.TempDir()
	e1 := newJournaledServer(t, dir, Config{})
	id1 := e1.createSession(t)
	id2 := e1.createSession(t)
	advanceRounds(t, e1, id1, 3)
	advanceRounds(t, e1, id2, 2)
	ref2 := ledgerBytes(t, e1, id2)

	image := crashImage(t, dir)
	seg := walSegments(t, image, id1)[0]
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[10] ^= 0xff // inside the first record's payload, with records behind it
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	e2, stats := recoverServer(t, image, Config{})
	if stats.Sessions != 1 || stats.Failed != 1 {
		t.Fatalf("recovery stats = %+v, want 1 recovered, 1 failed", stats)
	}
	if code := e2.do(t, "GET", "/v1/sessions/"+id1, nil, nil); code != http.StatusNotFound {
		t.Errorf("corrupt session served: status %d, want 404", code)
	}
	if got := ledgerBytes(t, e2, id2); string(got) != string(ref2) {
		t.Fatalf("sibling ledger differs:\n got %s\nwant %s", got, ref2)
	}
	// The failed session's files stay on disk for forensics, and its ID
	// is retired: a new session must not collide with them.
	var created CreateSessionResponse
	req := testCreateReq()
	if code := e2.do(t, "POST", "/v1/sessions", &req, &created); code != http.StatusCreated {
		t.Fatalf("create after failed recovery: status %d", code)
	}
	if created.ID == id1 || created.ID == id2 {
		t.Errorf("new session re-minted journaled ID %s", created.ID)
	}
	if _, err := os.Stat(filepath.Join(image, id1)); err != nil {
		t.Errorf("corrupt session's journal removed: %v", err)
	}
}

// TestSnapshotWithoutJournal pins the 409 on durability endpoints when
// the server runs without a journal.
func TestSnapshotWithoutJournal(t *testing.T) {
	e := newTestServer(t, Config{})
	id := e.createSession(t)
	if code := e.do(t, "POST", "/v1/sessions/"+id+"/snapshot", nil, nil); code != http.StatusConflict {
		t.Errorf("snapshot without journal: status %d, want 409", code)
	}
	var info SessionInfo
	if code := e.do(t, "GET", "/v1/sessions/"+id, nil, &info); code != http.StatusOK {
		t.Fatalf("get session: status %d", code)
	}
	if info.Journal != nil {
		t.Errorf("journal info = %+v on an unjournaled session, want absent", info.Journal)
	}
}

// logShape renders what a session's log retains — the table length,
// ledger_bytes and each row's form and sizes — for comparing a recovered
// log with the live one.
func logShape(t *testing.T, e *testServer, id string) string {
	t.Helper()
	var info SessionInfo
	if code := e.do(t, "GET", "/v1/sessions/"+id, nil, &info); code != http.StatusOK {
		t.Fatalf("get session: status %d", code)
	}
	e.srv.mu.Lock()
	sess := e.srv.sessions[id]
	e.srv.mu.Unlock()
	sess.ledgerMu.RLock()
	defer sess.ledgerMu.RUnlock()
	l := &sess.ledger
	s := fmt.Sprintf("table %d, ledger_bytes %d:", l.entries, info.LedgerBytes)
	for _, row := range l.rows {
		if row.delta {
			s += fmt.Sprintf(" d%d/%d/%d", len(row.edits), len(row.leaves), len(row.refs))
		} else {
			s += fmt.Sprintf(" f%d", len(row.refs))
		}
	}
	return s
}

// driveChurnSession serves rounds to a 40-agent archetype session whose
// first two agents toggle their weights back and forth, with agents
// leaving and joining every few rounds, so its log holds interned
// entries and delta rows across joins and leaves.
func driveChurnSession(t *testing.T, e *testServer, id string, specs []AgentSpec, from, rounds int) {
	t.Helper()
	for r := from; r < from+rounds; r++ {
		drift := DriftRequest{Weights: map[string]float64{
			specs[0].ID: specs[0].Weight * float64(1+r%2),
			specs[1].ID: specs[1].Weight * float64(2-r%2),
		}}
		if r%4 == 3 {
			joiner := specs[2+r%3]
			joiner.ID = fmt.Sprintf("joiner-%03d", r)
			drift.Add = []AgentSpec{joiner}
			drift.Remove = []string{specs[10+r].ID}
		}
		if code := e.do(t, "POST", "/v1/sessions/"+id+"/drift", &drift, nil); code != http.StatusOK {
			t.Fatalf("drift %d: status %d", r, code)
		}
		advanceRounds(t, e, id, 1)
	}
}

// TestRecoverCreateRecordAsReceived pins the create record: the journal
// holds the create body byte for byte as the client sent it, and a
// journal whose create record is the re-encoded (json.Marshal) form of
// the same request recovers to the same ledger — byte-identical listing,
// table length, row forms and ledger_bytes — as the live session.
func TestRecoverCreateRecordAsReceived(t *testing.T) {
	dir := t.TempDir()
	e1 := newJournaledServer(t, dir, Config{})
	req := CreateSessionRequest{Agents: archetypeAgents(40), M: 10, Delta: 0.2, Mu: 1}
	sent, err := json.MarshalIndent(req, " ", "\t")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e1.ts.Client().Post(e1.ts.URL+"/v1/sessions", "application/json", bytes.NewReader(sent))
	if err != nil {
		t.Fatal(err)
	}
	var created CreateSessionResponse
	err = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: status %d, %v", resp.StatusCode, err)
	}
	id := created.ID
	driveChurnSession(t, e1, id, req.Agents, 0, 16)
	ref, shape := ledgerBytes(t, e1, id), logShape(t, e1, id)

	st, err := journal.Open(crashImage(t, dir), journal.Options{Mode: journal.ModeStrict})
	if err != nil {
		t.Fatal(err)
	}
	recs, failed, err := st.Recover()
	if err != nil || len(failed) != 0 || len(recs) != 1 {
		t.Fatalf("recover: %v, %d failed, %d sessions", err, len(failed), len(recs))
	}
	tail := recs[0].Tail
	if tail[0].Kind != journal.KindCreate || !bytes.Equal(tail[0].Body, sent) {
		t.Fatalf("the create record holds\n%s\nwant the body as sent\n%s", tail[0].Body, sent)
	}

	// The same history behind a create record in the re-encoded form.
	old := t.TempDir()
	st, err = journal.Open(old, journal.Options{Mode: journal.ModeStrict})
	if err != nil {
		t.Fatal(err)
	}
	jw, err := st.Create(id)
	if err != nil {
		t.Fatal(err)
	}
	marshaled, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(marshaled, sent) {
		t.Fatal("the re-encoded form must differ from the body sent")
	}
	if _, err := jw.Append(journal.KindCreate, marshaled); err != nil {
		t.Fatal(err)
	}
	for _, r := range tail[1:] {
		if _, err := jw.Append(r.Kind, r.Body); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	e2, stats := recoverServer(t, old, Config{})
	if stats.Sessions != 1 || stats.Failed != 0 {
		t.Fatalf("recovery stats = %+v, want 1 session, 0 failed", stats)
	}
	if got := ledgerBytes(t, e2, id); string(got) != string(ref) {
		t.Fatalf("recovered ledger differs:\n got %s\nwant %s", got, ref)
	}
	if got := logShape(t, e2, id); got != shape {
		t.Errorf("recovered log retains\n%s\nthe live log\n%s", got, shape)
	}
}

// TestRecoverLogShapeAcrossSnapshot recovers a churning session from a
// snapshot plus a replayed tail: the recovered log must retain exactly
// what the live one does — table length, row forms, ledger_bytes — and
// list byte-identical rounds.
func TestRecoverLogShapeAcrossSnapshot(t *testing.T) {
	dir := t.TempDir()
	e1 := newJournaledServer(t, dir, Config{})
	req := CreateSessionRequest{Agents: archetypeAgents(40), M: 10, Delta: 0.2, Mu: 1}
	var created CreateSessionResponse
	if code := e1.do(t, "POST", "/v1/sessions", &req, &created); code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	id := created.ID
	driveChurnSession(t, e1, id, req.Agents, 0, 12)
	if code := e1.do(t, "POST", "/v1/sessions/"+id+"/snapshot", nil, nil); code != http.StatusOK {
		t.Fatalf("snapshot: status %d", code)
	}
	driveChurnSession(t, e1, id, req.Agents, 12, 6)
	ref, shape := ledgerBytes(t, e1, id), logShape(t, e1, id)
	if !strings.Contains(shape, "/1/1") {
		t.Fatalf("the live log holds no delta row across a join and a leave: %s", shape)
	}

	e2, stats := recoverServer(t, crashImage(t, dir), Config{})
	if stats.Sessions != 1 || stats.Failed != 0 || stats.Replayed != 12 {
		t.Fatalf("recovery stats = %+v, want 1 session, 12 replayed", stats)
	}
	if got := ledgerBytes(t, e2, id); string(got) != string(ref) {
		t.Fatalf("recovered ledger differs:\n got %s\nwant %s", got, ref)
	}
	if got := logShape(t, e2, id); got != shape {
		t.Errorf("recovered log retains\n%s\nthe live log\n%s", got, shape)
	}
}

// postRaw posts body verbatim and returns the status and response body.
func postRaw(t *testing.T, e *testServer, path, body string) (int, []byte) {
	t.Helper()
	resp, err := e.ts.Client().Post(e.ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestRecoverCaseVariantCreateRecord recovers a session whose create body
// used case-variant keys and escaped strings — the input decodeCreate
// hands to the strict decoder — to the ledger the live session served.
// The body creates the same population as testCreateReq.
func TestRecoverCaseVariantCreateRecord(t *testing.T) {
	dir := t.TempDir()
	e1 := newJournaledServer(t, dir, Config{})
	body := `{"AGENTS":[
		{"ID":"h\u0031","Class":"honest","Psi":{"R2":-0.25,"r1":2,"r0":0},"beta":1,"Weight":1},
		{"id":"h2","class":"honest","psi":{"r2":-0.25,"r1":2},"beta":1,"weight":1},
		{"id":"m1","class":"m\u0061licious","PSI":{"r2":-0.25,"r1":2},"Beta":1,"Omega":0.5,"weight":0.8,"Malice":0.9},
		{"id":"c1","class":"community","psi":{"r2":-0.25,"R1":2},"beta":1,"omega":0.3,"Size":3,"weight":0.5}
	],"M":10,"Delta":0.2,"mU":1}`
	code, raw := postRaw(t, e1, "/v1/sessions", body)
	if code != http.StatusCreated {
		t.Fatalf("create session: status %d: %s", code, raw)
	}
	var created CreateSessionResponse
	if err := json.Unmarshal(raw, &created); err != nil {
		t.Fatal(err)
	}
	id := created.ID
	advanceRounds(t, e1, id, 2)
	drift := DriftRequest{Weights: map[string]float64{"h2": 1.3, "c1": 0.7}}
	if code := e1.do(t, "POST", "/v1/sessions/"+id+"/drift", &drift, nil); code != http.StatusOK {
		t.Fatalf("drift: status %d", code)
	}
	advanceRounds(t, e1, id, 2)
	ref := ledgerBytes(t, e1, id)

	// The same requests with the canonical create body serve the same ledger.
	e0 := newTestServer(t, Config{})
	id0 := e0.createSession(t)
	advanceRounds(t, e0, id0, 2)
	if code := e0.do(t, "POST", "/v1/sessions/"+id0+"/drift", &drift, nil); code != http.StatusOK {
		t.Fatalf("drift: status %d", code)
	}
	advanceRounds(t, e0, id0, 2)
	if got := ledgerBytes(t, e0, id0); string(got) != string(ref) {
		t.Fatalf("the case-variant body served another ledger than testCreateReq:\n got %s\nwant %s", ref, got)
	}

	e2, stats := recoverServer(t, crashImage(t, dir), Config{})
	if stats.Sessions != 1 || stats.Failed != 0 || stats.Replayed != 5 {
		t.Fatalf("recovery stats = %+v, want 1 session, 5 replayed", stats)
	}
	if got := ledgerBytes(t, e2, id); string(got) != string(ref) {
		t.Fatalf("recovered ledger differs:\n got %s\nwant %s", got, ref)
	}
}

// TestRecoverDriftRecordAsReceived pins the drift record: the journal
// holds a drift body byte for byte as the client sent it — here with
// case-variant keys, an escape and whitespace — and replay of that record
// gives the ledger the live session served.
func TestRecoverDriftRecordAsReceived(t *testing.T) {
	dir := t.TempDir()
	e1 := newJournaledServer(t, dir, Config{})
	id := e1.createSession(t)
	advanceRounds(t, e1, id, 2)
	sent := `{ "WEIGHTS": {"h\u0031": 1.4, "m1": 0.6},
		"Add": [{"ID": "h3", "class": "honest", "Psi": {"r2": -0.25, "r1": 2}, "beta": 1.1, "weight": 0.9}],
		"remove": ["c1"] }`
	if code, raw := postRaw(t, e1, "/v1/sessions/"+id+"/drift", sent); code != http.StatusOK {
		t.Fatalf("drift: status %d: %s", code, raw)
	}
	advanceRounds(t, e1, id, 3)
	ref := ledgerBytes(t, e1, id)

	img := crashImage(t, dir)
	st, err := journal.Open(img, journal.Options{Mode: journal.ModeStrict})
	if err != nil {
		t.Fatal(err)
	}
	recs, failed, err := st.Recover()
	if err != nil || len(failed) != 0 || len(recs) != 1 {
		t.Fatalf("recover: %v, %d failed, %d sessions", err, len(failed), len(recs))
	}
	var drifts [][]byte
	for _, r := range recs[0].Tail {
		if r.Kind == journal.KindDrift {
			drifts = append(drifts, r.Body)
		}
	}
	if len(drifts) != 1 || string(drifts[0]) != sent {
		t.Fatalf("the drift records hold %q, want the body as sent %q", drifts, sent)
	}

	e2, stats := recoverServer(t, img, Config{})
	if stats.Sessions != 1 || stats.Failed != 0 || stats.Replayed != 6 {
		t.Fatalf("recovery stats = %+v, want 1 session, 6 replayed", stats)
	}
	if got := ledgerBytes(t, e2, id); string(got) != string(ref) {
		t.Fatalf("recovered ledger differs:\n got %s\nwant %s", got, ref)
	}
}
