// Package journal is contractd's durability subsystem: an append-only
// per-session write-ahead log plus periodic snapshots, giving sessions
// byte-identical crash recovery.
//
// Every session owns one directory under the store root:
//
//	<dir>/<sessionID>/wal-<startSeq>.log   append-only segments
//	<dir>/<sessionID>/snap-<seq>.snap      full-state snapshots
//
// Commands (session create, round advance, drift) are framed with a
// length prefix and a CRC32C checksum (codec.go) and appended by the
// session's single-writer loop *before* execution, so the log is always
// a superset of the executed history. Snapshots rotate the segment at a
// sequence boundary and are committed atomically (temp file, fsync,
// rename, directory fsync) before older segments and snapshots are
// deleted; a crash anywhere in that protocol leaves either the old
// recovery path or the new one intact, never neither.
//
// Two durability modes: ModeBuffered writes behind a user-space buffer
// the session loop flushes when idle (a kill -9 can lose the unflushed
// tail — recovery yields a prefix of the served history), and ModeStrict
// flushes and fsyncs before every command executes (a served response
// implies a durable record, at fsync cost per command).
package journal

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"dyncontract/internal/telemetry"
)

// Mode selects the durability level of Writer.Append.
type Mode int

const (
	// ModeBuffered writes behind a user-space buffer; the caller flushes
	// at its own cadence (the session loop flushes when its queue runs
	// dry). Completed OS writes survive kill -9; the unflushed buffer and
	// OS cache do not survive a machine crash.
	ModeBuffered Mode = iota
	// ModeStrict flushes and fsyncs every append before it returns, so
	// a command is durable before it executes.
	ModeStrict
)

// ParseMode resolves the -journal-sync flag values.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "buffered":
		return ModeBuffered, nil
	case "fsync", "strict":
		return ModeStrict, nil
	default:
		return 0, fmt.Errorf("journal: unknown sync mode %q (want buffered or fsync)", s)
	}
}

func (m Mode) String() string {
	if m == ModeStrict {
		return "fsync"
	}
	return "buffered"
}

// Options tunes a Store.
type Options struct {
	// Mode is the append durability level. Default ModeBuffered.
	Mode Mode
	// BufferBytes sizes each writer's user-space buffer in ModeBuffered.
	// Default 64 KiB.
	BufferBytes int
	// Metrics, when non-nil, receives append/fsync latency histograms,
	// byte and record counters, snapshot durations, and recovery
	// counters. Nil is off.
	Metrics *telemetry.Registry
}

// Store is a journal directory: one subdirectory per session.
type Store struct {
	dir  string
	opts Options
	m    *journalMetrics
}

// Open creates (if needed) and opens the journal root directory.
func Open(dir string, opts Options) (*Store, error) {
	if opts.BufferBytes <= 0 {
		opts.BufferBytes = 64 << 10
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", dir, err)
	}
	return &Store{dir: dir, opts: opts, m: newJournalMetrics(opts.Metrics)}, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// Mode returns the store's append durability mode.
func (st *Store) Mode() Mode { return st.opts.Mode }

// Create opens the write-ahead log for a brand-new session. It fails if
// the session already has a journal directory — fresh session IDs must
// not collide with journaled history.
func (st *Store) Create(id string) (*Writer, error) {
	dir := filepath.Join(st.dir, id)
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: create session %s: %w", id, err)
	}
	return st.newWriter(id, dir, 0)
}

// Resume reopens the write-ahead log of a recovered session: appends
// continue after lastSeq in a fresh segment, leaving recovered segments
// untouched.
func (st *Store) Resume(id string, lastSeq uint64) (*Writer, error) {
	dir := filepath.Join(st.dir, id)
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return nil, fmt.Errorf("journal: resume session %s: no journal directory", id)
	}
	return st.newWriter(id, dir, lastSeq)
}

func (st *Store) newWriter(id, dir string, lastSeq uint64) (*Writer, error) {
	w := &Writer{st: st, id: id, dir: dir}
	w.seq.Store(lastSeq)
	if err := w.openSegment(lastSeq + 1); err != nil {
		return nil, err
	}
	return w, nil
}

// Writer appends one session's records. Append, Flush, BeginSnapshot,
// and Close belong to the session's writer goroutine; CommitSnapshot may
// run on a background goroutine (it touches only its own files). Seq is
// safe from any goroutine.
type Writer struct {
	st  *Store
	id  string
	dir string

	f   *os.File
	bw  *bufio.Writer
	seq atomic.Uint64 // last assigned sequence number

	hdr [recordHeader]byte // Append's record header
}

// segName formats a segment file name from its first sequence number.
func segName(startSeq uint64) string {
	return fmt.Sprintf("wal-%016d.log", startSeq)
}

// snapName formats a snapshot file name from its last covered sequence.
func snapName(seq uint64) string {
	return fmt.Sprintf("snap-%016d.snap", seq)
}

// parseSeq extracts the sequence number from a wal-/snap- file name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	num, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	if num, ok = strings.CutSuffix(num, suffix); !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

func (w *Writer) openSegment(startSeq uint64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segName(startSeq)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: session %s: %w", w.id, err)
	}
	w.f = f
	if w.bw == nil {
		w.bw = bufio.NewWriterSize(f, w.st.opts.BufferBytes)
	} else {
		w.bw.Reset(f)
	}
	return nil
}

// Seq returns the last assigned sequence number.
func (w *Writer) Seq() uint64 { return w.seq.Load() }

// Append assigns the next sequence number and writes one record. In
// ModeStrict the record is flushed and fsynced before Append returns;
// in ModeBuffered it lands in the user-space buffer.
func (w *Writer) Append(kind Kind, body []byte) (uint64, error) {
	seq := w.seq.Load() + 1
	var t telemetry.Timer
	if w.st.m != nil {
		t = telemetry.StartTimer()
	}
	n, err := writeRecord(w.bw, &w.hdr, Record{Seq: seq, Kind: kind, Body: body})
	if err != nil {
		return 0, fmt.Errorf("journal: session %s append: %w", w.id, err)
	}
	if m := w.st.m; m != nil {
		m.appendSec.Observe(t.Seconds())
		m.bytes.Add(uint64(n))
		m.records.Inc()
	}
	// The record is in the stream: the sequence number is consumed even if
	// the strict-mode sync below fails (reusing it would fork the log).
	w.seq.Store(seq)
	if w.st.opts.Mode == ModeStrict {
		if err := w.Sync(); err != nil {
			return seq, err
		}
	}
	return seq, nil
}

// Flush drains the user-space buffer to the OS. After a successful Flush
// the written records survive kill -9 (not a machine crash; see Sync).
func (w *Writer) Flush() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("journal: session %s flush: %w", w.id, err)
	}
	return nil
}

// Sync flushes and fsyncs the current segment.
func (w *Writer) Sync() error {
	if err := w.Flush(); err != nil {
		return err
	}
	var t telemetry.Timer
	if w.st.m != nil {
		t = telemetry.StartTimer()
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("journal: session %s fsync: %w", w.id, err)
	}
	if w.st.m != nil {
		w.st.m.fsyncSec.Observe(t.Seconds())
	}
	return nil
}

// BeginSnapshot seals the current segment at a sequence boundary: the
// segment is flushed, fsynced, and closed, and appends continue in a
// fresh segment starting at Seq()+1. It returns the sequence number the
// snapshot must cover. The caller serializes snapshots — at most one
// between BeginSnapshot and CommitSnapshot.
func (w *Writer) BeginSnapshot() (uint64, error) {
	if err := w.Sync(); err != nil {
		return 0, err
	}
	if err := w.f.Close(); err != nil {
		return 0, fmt.Errorf("journal: session %s: %w", w.id, err)
	}
	seq := w.seq.Load()
	if err := w.openSegment(seq + 1); err != nil {
		return 0, err
	}
	return seq, nil
}

// CommitSnapshot durably writes the snapshot covering seq — temp file,
// fsync, rename, directory fsync — then deletes every segment and
// snapshot it supersedes. Safe to run on a background goroutine while
// the writer goroutine keeps appending to the post-BeginSnapshot
// segment.
func (w *Writer) CommitSnapshot(seq uint64, body []byte) error {
	var t telemetry.Timer
	if w.st.m != nil {
		t = telemetry.StartTimer()
	}
	tmp := filepath.Join(w.dir, snapName(seq)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: session %s snapshot: %w", w.id, err)
	}
	var hdr [recordHeader]byte
	n, err := writeRecord(f, &hdr, Record{Seq: seq, Kind: KindSnapshot, Body: body})
	if err != nil {
		f.Close()
		return fmt.Errorf("journal: session %s snapshot: %w", w.id, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: session %s snapshot: %w", w.id, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: session %s snapshot: %w", w.id, err)
	}
	if err := os.Rename(tmp, filepath.Join(w.dir, snapName(seq))); err != nil {
		return fmt.Errorf("journal: session %s snapshot: %w", w.id, err)
	}
	syncDir(w.dir)
	// The snapshot is durable: segments fully covered by it (started at
	// or before seq — BeginSnapshot's rotation guarantees they hold no
	// record past seq) and older snapshots are dead weight.
	entries, err := os.ReadDir(w.dir)
	if err == nil {
		for _, e := range entries {
			if s, ok := parseSeq(e.Name(), "wal-", ".log"); ok && s <= seq {
				os.Remove(filepath.Join(w.dir, e.Name()))
			}
			if s, ok := parseSeq(e.Name(), "snap-", ".snap"); ok && s < seq {
				os.Remove(filepath.Join(w.dir, e.Name()))
			}
		}
		syncDir(w.dir)
	}
	if m := w.st.m; m != nil {
		m.snapshotSec.Observe(t.Seconds())
		m.snapshots.Inc()
		m.bytes.Add(uint64(n))
	}
	return nil
}

// Close flushes and closes the current segment. In ModeBuffered the tail
// is flushed but not fsynced — a clean close is durable against process
// death, matching the mode's contract.
func (w *Writer) Close() error {
	if err := w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	if w.st.opts.Mode == ModeStrict {
		if err := w.Sync(); err != nil {
			w.f.Close()
			return err
		}
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("journal: session %s close: %w", w.id, err)
	}
	return nil
}

// syncDir fsyncs a directory so renames and removals inside it are
// durable. Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// sessionDirs lists the store's session subdirectories, sorted by name.
func (st *Store) sessionDirs() ([]string, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("journal: scan %s: %w", st.dir, err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}
