package perfprof

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"strings"
	"sync"
)

// TraceWriter writes the clocked spans opened under a context (see
// WithTrace) as Chrome trace_event objects, one JSON object per line
// (JSONL). Each span becomes one complete ("X") event when it ends: name is
// the leaf phase name, cat the parent path, and ts/dur run on the
// *simulated* clock in microseconds, so a multi-hour co-search renders at
// its true simulated proportions in a trace viewer; args carry the real
// elapsed milliseconds (real_ms) and the simulated end time (sim_hours).
// `jq -s . trace.jsonl` converts the stream to the JSON-array form
// chrome://tracing and Perfetto ingest directly.
//
// Spans without a clock and spans opened with Begin emit nothing. Per-
// iteration numbers (admitted samples, hypervolume, front size, survivors
// per rung) live in the flight record, not in the trace.
type TraceWriter struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
}

// traceEvent is one Chrome trace_event object.
type traceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	Args any     `json:"args,omitempty"`
}

// spanArgs are the args of a span event.
type spanArgs struct {
	RealMs   float64 `json:"real_ms"`
	SimHours float64 `json:"sim_hours"`
}

// NewTraceWriter returns a writer of JSONL trace events to w. The first
// line is the process_name metadata event.
func NewTraceWriter(w io.Writer) *TraceWriter {
	bw := bufio.NewWriter(w)
	t := &TraceWriter{w: bw, enc: json.NewEncoder(bw)}
	t.emit(traceEvent{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]string{"name": "unico co-search (simulated time)"},
	})
	return t
}

// WithTrace returns a context whose clocked spans — and those of every span
// opened under it — are written to t when they end. The parent phase path
// ctx carries, if any, is kept.
func WithTrace(ctx context.Context, t *TraceWriter) context.Context {
	f := frameOf(ctx)
	f.trace = t
	return context.WithValue(ctx, ctxKey{}, &f)
}

// complete writes the ended span s as one complete event, if it is clocked.
func (t *TraceWriter) complete(s *Span, wall, simEnd float64) {
	if s.clock == nil {
		return
	}
	name, cat := s.path, ""
	if i := strings.LastIndex(s.path, Separator); i >= 0 {
		name, cat = s.path[i+1:], s.path[:i]
	}
	t.emit(traceEvent{
		Name: name, Cat: cat, Ph: "X",
		TS: s.sim0 * 1e6, Dur: max(simEnd-s.sim0, 0) * 1e6,
		PID:  1,
		Args: spanArgs{RealMs: wall * 1e3, SimHours: simEnd / 3600},
	})
}

func (t *TraceWriter) emit(ev traceEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	_ = t.enc.Encode(ev) // Encode appends the newline: one event per line
}

// Flush drains buffered events to the underlying writer.
func (t *TraceWriter) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.w.Flush()
}
