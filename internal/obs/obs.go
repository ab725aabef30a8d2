// Package obs is the observability layer of the CHOP pipeline: a
// zero-dependency tracing and metrics substrate threaded through the
// predictor (bad), the integrator and the search heuristics (core).
//
// Tracing is hierarchical: a Tracer produces timed spans
// (Run → PredictPartitions → per-partition BAD → Search) and instantaneous
// point events (a search worker's tally of trials at each flush, Figure-5
// serialization step), each carrying structured fields.
// Events are emitted to a pluggable Sink; the provided WriterSink writes
// one JSON object per line (JSONL), which Replay turns back into a
// human-readable report (see replay.go).
//
// Everything is nil-safe and off by default: a nil *Tracer (or a nil
// *Span derived from it) turns every call into an immediate no-op, so
// instrumented hot paths cost nothing measurable when tracing is
// disabled. Hot loops additionally guard with explicit nil checks to
// avoid variadic-argument allocation.
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Field is one key/value attribute attached to a span or event.
type Field struct {
	Key string
	Val any
}

// F builds a Field.
func F(key string, val any) Field { return Field{Key: key, Val: val} }

// Event kinds.
const (
	KindBegin = "begin" // span start
	KindEnd   = "end"   // span end (carries the duration)
	KindPoint = "point" // instantaneous event within a span
)

// Event is one trace record. Events serialize to JSONL via WriterSink and
// are the unit Replay consumes.
type Event struct {
	// TNS is the event time in nanoseconds since the tracer started.
	TNS int64 `json:"t"`
	// Kind is KindBegin, KindEnd or KindPoint.
	Kind string `json:"k"`
	// Name is the span name (begin/end) or the event name (point).
	Name string `json:"name"`
	// Span and Parent identify the span tree; span IDs start at 1 and
	// Parent 0 marks a root span.
	Span   int64 `json:"span,omitempty"`
	Parent int64 `json:"parent,omitempty"`
	// DurNS is the span duration in nanoseconds (end events only).
	DurNS int64 `json:"dur,omitempty"`
	// Run tags the event with the run it belongs to when several runs
	// multiplex into one sink (the serve ring); empty for single-run
	// tracers. Replay groups by it when present.
	Run string `json:"run,omitempty"`
	// Trace is the W3C trace ID (32 lowercase hex) shared by every span of
	// one logical operation across processes; SID is this span's globally
	// unique 8-byte span ID (16 lowercase hex, on begin/end and on the
	// points inside it) and PSID its parent's — which may name a span in a
	// different process (the remote caller) on root spans. Span/Parent stay
	// the process-local tree; these three are what lets `chop trace` stitch
	// several processes' JSONL files into one tree. All omitempty, so
	// chop-trace/1 files without them still parse.
	Trace string `json:"trace,omitempty"`
	SID   string `json:"sid,omitempty"`
	PSID  string `json:"psid,omitempty"`
	// EpochNS anchors the tracer's relative clock to the wall clock: the
	// tracer's start instant in nanoseconds since the Unix epoch, constant
	// across a tracer's events. The absolute event time is EpochNS+TNS;
	// the stitcher aligns clocks across processes with it.
	EpochNS int64 `json:"epoch,omitempty"`
	// Fields holds the structured attributes.
	Fields map[string]any `json:"f,omitempty"`
}

// Time returns the event's absolute wall-clock time in nanoseconds since
// the Unix epoch, or its relative TNS when the trace predates the epoch
// anchor.
func (ev Event) Time() int64 {
	if ev.EpochNS == 0 {
		return ev.TNS
	}
	return ev.EpochNS + ev.TNS
}

// Sink receives trace events. Implementations must be safe for concurrent
// Emit calls.
type Sink interface{ Emit(Event) }

// WriterSink emits events as JSONL to an io.Writer.
type WriterSink struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewWriterSink wraps w. The sink serializes concurrent emits itself; w
// need not be safe for concurrent use.
func NewWriterSink(w io.Writer) *WriterSink {
	return &WriterSink{enc: json.NewEncoder(w)}
}

// Emit writes one JSONL record.
func (s *WriterSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(ev)
}

// Err reports the first write error, if any.
func (s *WriterSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// CountingSink counts events without retaining them — useful for tests and
// for measuring instrumentation volume.
type CountingSink struct {
	mu     sync.Mutex
	total  int
	byName map[string]int
}

// NewCountingSink returns an empty counting sink.
func NewCountingSink() *CountingSink {
	return &CountingSink{byName: make(map[string]int)}
}

// Emit counts the event.
func (s *CountingSink) Emit(ev Event) {
	s.mu.Lock()
	s.total++
	s.byName[ev.Kind+":"+ev.Name]++
	s.mu.Unlock()
}

// Total returns the number of events seen.
func (s *CountingSink) Total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Count returns the number of events of one kind and name (e.g.
// Count(KindPoint, "tally")).
func (s *CountingSink) Count(kind, name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byName[kind+":"+name]
}

// Tracer emits hierarchical spans and events to a Sink. A nil *Tracer is
// valid and disables all tracing.
type Tracer struct {
	sink    Sink
	start   time.Time
	epoch   int64 // start in ns since the Unix epoch (Event.EpochNS)
	run     string
	traceID string
	remote  string // remote parent span ID adopted by root spans
	ids     atomic.Int64
}

// TracerOptions parameterizes NewTracer. The zero value matches New.
type TracerOptions struct {
	// Run tags every emitted event with a run identifier, making events
	// demuxable when several concurrent runs share one sink.
	Run string
	// Context links the tracer into a distributed trace: a valid TraceID
	// is adopted (one is minted when absent), and a valid SpanID becomes
	// the remote parent of the tracer's root spans — so the spans this
	// process emits hang under the caller's span when the files are
	// stitched. The Sampled flag is propagation metadata; it does not gate
	// emission (a constructed tracer always records).
	Context TraceContext
}

// New returns a Tracer emitting to sink, or nil (tracing disabled) when
// sink is nil.
func New(sink Sink) *Tracer {
	return NewTracer(sink, TracerOptions{})
}

// NewTracer returns a Tracer emitting to sink with the given identity, or
// nil (tracing disabled) when sink is nil.
func NewTracer(sink Sink, opts TracerOptions) *Tracer {
	if sink == nil {
		return nil
	}
	t := &Tracer{sink: sink, start: time.Now(), run: opts.Run}
	t.epoch = t.start.UnixNano()
	if validHexID(opts.Context.TraceID, 32) {
		t.traceID = opts.Context.TraceID
	} else {
		t.traceID = NewTraceID()
	}
	if validHexID(opts.Context.SpanID, 16) {
		t.remote = opts.Context.SpanID
	}
	return t
}

// NewRunTracer returns a Tracer that stamps every emitted event with the
// given run identifier, making events demuxable when several concurrent
// runs share one sink (the serve layer tags each job's tracer with its run
// ID). Like New, a nil sink disables tracing.
func NewRunTracer(sink Sink, run string) *Tracer {
	return NewTracer(sink, TracerOptions{Run: run})
}

// TraceID returns the tracer's distributed trace ID ("" on a nil tracer).
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// emit stamps the tracer's identity (run tag, trace ID, epoch anchor) and
// forwards to the sink.
func (t *Tracer) emit(ev Event) {
	ev.Run = t.run
	ev.Trace = t.traceID
	ev.EpochNS = t.epoch
	t.sink.Emit(ev)
}

// Enabled reports whether the tracer emits anything.
func (t *Tracer) Enabled() bool { return t != nil && t.sink != nil }

func (t *Tracer) now() int64 { return time.Since(t.start).Nanoseconds() }

// Span starts a root span. Returns nil (a valid no-op span) when the
// tracer is disabled.
func (t *Tracer) Span(name string, fields ...Field) *Span {
	if !t.Enabled() {
		return nil
	}
	// Root spans chain to the remote caller's span (if the tracer was
	// constructed with a propagated context).
	return t.newSpan(name, 0, t.remote, fields)
}

func (t *Tracer) newSpan(name string, parent int64, psid string, fields []Field) *Span {
	id := t.ids.Add(1)
	sid := NewSpanID()
	t.emit(Event{
		TNS: t.now(), Kind: KindBegin, Name: name,
		Span: id, Parent: parent, SID: sid, PSID: psid,
		Fields: fieldMap(fields),
	})
	return &Span{t: t, id: id, sid: sid, name: name, start: time.Now()}
}

// SpanUnder starts a span under parent when parent is non-nil, else a root
// span on t. It lets public entry points create their own root while the
// same code nests when reached through Run.
func SpanUnder(t *Tracer, parent *Span, name string, fields ...Field) *Span {
	if parent != nil {
		return parent.Child(name, fields...)
	}
	return t.Span(name, fields...)
}

// Span is one timed region of the pipeline. A nil *Span is valid and all
// its methods no-op.
type Span struct {
	t     *Tracer
	id    int64
	sid   string
	name  string
	start time.Time
}

// Context returns the span's position in the distributed trace — what a
// caller injects into an outgoing request (InjectTraceparent) so the
// receiver's spans become this span's children. Zero on a nil span.
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.t.traceID, SpanID: s.sid, Sampled: true}
}

// Child starts a sub-span.
func (s *Span) Child(name string, fields ...Field) *Span {
	if s == nil {
		return nil
	}
	return s.t.newSpan(name, s.id, s.sid, fields)
}

// Point emits an instantaneous event within the span.
func (s *Span) Point(name string, fields ...Field) {
	if s == nil {
		return
	}
	s.t.emit(Event{
		TNS: s.t.now(), Kind: KindPoint, Name: name,
		Span: s.id, SID: s.sid, Fields: fieldMap(fields),
	})
}

// End closes the span, recording its duration. Extra fields (result
// summaries) are attached to the end event.
func (s *Span) End(fields ...Field) {
	if s == nil {
		return
	}
	s.t.emit(Event{
		TNS: s.t.now(), Kind: KindEnd, Name: s.name, Span: s.id, SID: s.sid,
		DurNS: time.Since(s.start).Nanoseconds(), Fields: fieldMap(fields),
	})
}

func fieldMap(fields []Field) map[string]any {
	if len(fields) == 0 {
		return nil
	}
	m := make(map[string]any, len(fields))
	for _, f := range fields {
		m[f.Key] = f.Val
	}
	return m
}
