// Package spans is a stdlib-only execution tracer for request-scoped
// causality: trace/span IDs, context propagation, parent/child links,
// attributes, head-based sampling, a bounded in-memory recorder, and
// JSONL / Chrome trace_event exporters.
//
// The package follows the repo's nil-is-off convention end to end: a nil
// *Tracer mints no spans, a nil *Span swallows every method, and a Tracer
// with no Recorder is off. Instrumented code therefore never branches on
// "is tracing enabled" — it calls through unconditionally and the nil
// receivers make the disabled path free. The one deliberate cost on the
// sampled-out path is trace-ID generation (so X-Request-Id can still be
// echoed to clients); everything past the head-sampling branch is skipped
// without touching the heap.
//
// Concurrency contract: distinct spans may be started, annotated, and
// ended from distinct goroutines freely (concurrent server requests do
// exactly that), but a single span's SetAttr/SetInt/End must not race
// with each other — each span has one owning goroutine, matching how
// every caller in this repo already works. StartChild only reads the
// parent's immutable identity, so children may be started concurrently
// off one parent.
package spans

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end request: 16 bytes, rendered as 32
// lowercase hex digits. The zero TraceID means "no trace".
type TraceID [16]byte

// IsZero reports whether id is the absent trace ID.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string {
	var buf [32]byte
	hex.Encode(buf[:], id[:])
	return string(buf[:])
}

// MarshalText renders the ID as hex, so JSON exports carry readable IDs.
func (id TraceID) MarshalText() ([]byte, error) {
	buf := make([]byte, 32)
	hex.Encode(buf, id[:])
	return buf, nil
}

// UnmarshalText parses the 32-hex-digit form produced by MarshalText.
func (id *TraceID) UnmarshalText(b []byte) error {
	_, err := hex.Decode(id[:], b)
	return err
}

// SpanID identifies one span within a trace. Zero means "no parent".
type SpanID uint64

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string {
	var raw [8]byte
	binary.BigEndian.PutUint64(raw[:], uint64(id))
	var buf [16]byte
	hex.Encode(buf[:], raw[:])
	return string(buf[:])
}

// MarshalText renders the ID as hex.
func (id SpanID) MarshalText() ([]byte, error) {
	var raw [8]byte
	binary.BigEndian.PutUint64(raw[:], uint64(id))
	buf := make([]byte, 16)
	hex.Encode(buf, raw[:])
	return buf, nil
}

// UnmarshalText parses the 16-hex-digit form produced by MarshalText.
func (id *SpanID) UnmarshalText(b []byte) error {
	var raw [8]byte
	if _, err := hex.Decode(raw[:], b); err != nil {
		return err
	}
	*id = SpanID(binary.BigEndian.Uint64(raw[:]))
	return nil
}

// Attr is one key/value annotation on a span. Values are strings so the
// exporters stay trivial; use Str/Int/Bool to build them.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Str builds a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Value: strconv.FormatInt(v, 10)} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr { return Attr{Key: key, Value: strconv.FormatBool(v)} }

// SpanData is one finished span's plain-data record: what the Recorder
// stores and the exporters serialize.
type SpanData struct {
	Trace  TraceID   `json:"trace"`
	ID     SpanID    `json:"id"`
	Parent SpanID    `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Attrs  []Attr    `json:"attrs,omitempty"`
}

// Duration returns the span's wall time.
func (d SpanData) Duration() time.Duration { return d.End.Sub(d.Start) }

// Span is one in-flight timed operation. All methods tolerate a nil
// receiver (no-ops), so instrumented code never branches on sampling.
type Span struct {
	tracer *Tracer
	data   SpanData
}

// TraceID returns the span's trace, or the zero TraceID on a nil span.
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.data.Trace
}

// ID returns the span's ID, or zero on a nil span.
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.data.ID
}

// SetAttr annotates the span with a string attribute.
func (s *Span) SetAttr(key, value string) {
	if s != nil {
		s.data.Attrs = append(s.data.Attrs, Attr{Key: key, Value: value})
	}
}

// SetInt annotates the span with an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s != nil {
		s.data.Attrs = append(s.data.Attrs, Int(key, v))
	}
}

// StartChild starts a child span under s. Children may be started
// concurrently off one parent; each child then belongs to the goroutine
// that started it.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		tracer: s.tracer,
		data: SpanData{
			Trace:  s.data.Trace,
			ID:     s.tracer.nextSpanID(),
			Parent: s.data.ID,
			Name:   name,
			Start:  time.Now(),
		},
	}
}

// End stamps the span's end time and hands it to the recorder. End must
// be called exactly once; a nil span ignores the call.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.data.End = time.Now()
	s.tracer.rec.record(s.data)
}

// Config configures a Tracer.
type Config struct {
	// Sample is the head-sampling fraction: the deterministic share of
	// trace IDs that produce spans. Values ≥ 1 sample everything,
	// values ≤ 0 sample nothing.
	Sample float64
	// Seed seeds the trace-ID generator. Zero draws a random seed, so
	// distinct processes mint distinct IDs; fix it in tests for a
	// reproducible ID (and therefore sampling) sequence.
	Seed uint64
	// Recorder receives finished spans. Nil turns the tracer off —
	// StartRoot returns nil spans regardless of Sample.
	Recorder *Recorder
}

// Tracer mints trace IDs, makes the head-sampling decision, and starts
// root spans. A nil *Tracer is off: NewTraceID still returns usable IDs
// (zero-value generator) only on non-nil tracers, and StartRoot returns
// nil. All methods are safe for concurrent use.
type Tracer struct {
	sample   float64
	rec      *Recorder
	mu       sync.Mutex
	rng      *rand.Rand
	spanSeq  atomic.Uint64
	disabled bool
}

// New builds a Tracer. The returned tracer is off (mints nil spans) when
// cfg.Recorder is nil.
func New(cfg Config) *Tracer {
	seed := cfg.Seed
	if seed == 0 {
		var b [8]byte
		if _, err := cryptorand.Read(b[:]); err == nil {
			seed = binary.LittleEndian.Uint64(b[:])
		}
		if seed == 0 {
			seed = 1
		}
	}
	return &Tracer{
		sample:   cfg.Sample,
		rec:      cfg.Recorder,
		rng:      rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		disabled: cfg.Recorder == nil,
	}
}

// Recorder returns the tracer's recorder (nil when off).
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// NewTraceID mints a fresh non-zero trace ID from the seeded generator.
func (t *Tracer) NewTraceID() TraceID {
	if t == nil {
		return TraceID{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		var id TraceID
		binary.LittleEndian.PutUint64(id[:8], t.rng.Uint64())
		binary.LittleEndian.PutUint64(id[8:], t.rng.Uint64())
		if !id.IsZero() {
			return id
		}
	}
}

// Sampled reports the head-sampling decision for id: a pure function of
// the trace ID and the configured fraction, so every layer that sees the
// same ID agrees, and replaying an ID replays the decision.
func (t *Tracer) Sampled(id TraceID) bool {
	if t == nil || t.disabled || id.IsZero() {
		return false
	}
	return sampledAt(id, t.sample)
}

// sampledAt hashes id (FNV-1a 64) against the fraction's threshold.
func sampledAt(id TraceID, fraction float64) bool {
	if fraction >= 1 {
		return true
	}
	if fraction <= 0 {
		return false
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range id {
		h ^= uint64(b)
		h *= prime64
	}
	return h < uint64(fraction*math.MaxUint64)
}

// StartRoot starts a root span for trace id, or returns nil when the
// tracer is off or id is sampled out. The sampled-out path costs the
// Sampled branch and nothing else — no allocation.
func (t *Tracer) StartRoot(name string, id TraceID) *Span {
	if !t.Sampled(id) {
		return nil
	}
	return &Span{
		tracer: t,
		data: SpanData{
			Trace: id,
			ID:    t.nextSpanID(),
			Name:  name,
			Start: time.Now(),
		},
	}
}

// Root mints a fresh trace ID and starts a root span for it — the
// convenience entry point for CLIs that have no inbound request ID.
func (t *Tracer) Root(name string) *Span {
	if t == nil || t.disabled {
		return nil
	}
	return t.StartRoot(name, t.NewTraceID())
}

// nextSpanID allocates a process-unique span ID. Called only on sampled
// paths, from a non-nil tracer.
func (t *Tracer) nextSpanID() SpanID {
	return SpanID(t.spanSeq.Add(1))
}

// ctxKey keys the current span in a context.
type ctxKey struct{}

// ContextWith returns ctx carrying s. A nil span returns ctx unchanged —
// the sampled-out path allocates nothing.
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil. The lookup is a
// plain context-chain walk: no allocation, so alloc-pinned hot paths may
// call it unconditionally.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
