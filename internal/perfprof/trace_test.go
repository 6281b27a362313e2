package perfprof

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"unico/internal/simclock"
)

type event struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Args struct {
		RealMs   *float64 `json:"real_ms"`
		SimHours float64  `json:"sim_hours"`
	} `json:"args"`
}

// events flushes tw and parses every line of buf after the metadata line.
func events(t *testing.T, tw *TraceWriter, buf *bytes.Buffer) []event {
	t.Helper()
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if !strings.Contains(lines[0], `"process_name"`) {
		t.Fatalf("first line is not the process_name metadata event: %s", lines[0])
	}
	var out []event
	for i, line := range lines[1:] {
		var ev event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+2, err, line)
		}
		out = append(out, ev)
	}
	return out
}

// TestTraceJSONLWellFormed verifies every emitted line is a standalone JSON
// object with the Chrome trace_event required fields, and that a span's
// name is its leaf phase and its category the parent path.
func TestTraceJSONLWellFormed(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	c := &simclock.Clock{}
	p := New()

	ctx, iter := p.StartClocked(WithTrace(context.Background(), tw), "iteration", c)
	rctx, rung := p.StartClocked(ctx, "sh.rung", c)
	_, leaf := p.StartClocked(rctx, "mapsearch.advance", c)
	c.Advance(10)
	leaf.End()
	rung.End()
	iter.End()
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 { // metadata + three spans
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), buf.String())
	}
	for i, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		for _, field := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Errorf("line %d missing %q: %s", i+1, field, line)
			}
		}
	}
	got := map[string]string{}
	for _, ev := range events(t, tw, &buf) {
		if ev.Ph != "X" {
			t.Errorf("%s: ph = %q, want X", ev.Name, ev.Ph)
		}
		if ev.Args.RealMs == nil {
			t.Errorf("%s: args.real_ms missing", ev.Name)
		}
		got[ev.Name] = ev.Cat
	}
	want := map[string]string{
		"iteration":         "",
		"sh.rung":           "iteration",
		"mapsearch.advance": "iteration/sh.rung",
	}
	for name, cat := range want {
		if c, ok := got[name]; !ok || c != cat {
			t.Errorf("event %q: cat = %q (present %v), want %q", name, c, ok, cat)
		}
	}
}

// TestTraceSimulatedTimestamps verifies ts/dur run on the simulated clock
// (microseconds) and args carry the simulated end time in hours.
func TestTraceSimulatedTimestamps(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	c := &simclock.Clock{}
	c.Advance(7200)
	_, s := New().StartClocked(WithTrace(context.Background(), tw), "sh.rung", c) // sim 2h .. 3h
	c.Advance(3600)
	s.End()

	evs := events(t, tw, &buf)
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.TS != 7200e6 {
		t.Errorf("ts = %v µs, want 7.2e9 (simulated 2 h)", ev.TS)
	}
	if ev.Dur != 3600e6 {
		t.Errorf("dur = %v µs, want 3.6e9 (simulated 1 h)", ev.Dur)
	}
	if ev.Args.SimHours != 3 {
		t.Errorf("args.sim_hours = %v, want 3", ev.Args.SimHours)
	}
}

// TestOnlyClockedSpansUnderWriterEmit pins what reaches the trace: clocked
// spans opened under a context carrying the writer. Unclocked spans, Begin
// spans, timers and clocked spans outside the writer's context emit nothing.
func TestOnlyClockedSpansUnderWriterEmit(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	c := &simclock.Clock{}
	p := New()
	restore := SetActive(p)
	defer restore()

	traced := WithTrace(context.Background(), tw)
	ctx, parent := p.Start(traced, "unclocked")
	_, child := p.StartClocked(ctx, "clocked", c)
	child.End()
	parent.End()
	p.Begin("begin").End()
	NewTimer().ObserveAs("timer")
	_, outside := p.StartClocked(context.Background(), "outside", c)
	outside.End()
	var nilSpan *Span
	nilSpan.End()

	evs := events(t, tw, &buf)
	if len(evs) != 1 || evs[0].Name != "clocked" || evs[0].Cat != "unclocked" {
		t.Fatalf("events = %+v, want only the clocked child of the traced context", evs)
	}
	// The writer rides along without changing the phase tree.
	if got := window(p); got["unclocked/clocked"].Count != 1 || got["outside"].Count != 1 {
		t.Errorf("phase window = %v", got)
	}
}

// TestTraceWriterConcurrent ends spans from many goroutines; -race plus the
// line parse verifies events never interleave mid-line.
func TestTraceWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	ctx := WithTrace(context.Background(), tw)
	p := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &simclock.Clock{}
			for i := 0; i < 50; i++ {
				_, s := p.StartClocked(ctx, "ev", c)
				c.Advance(1)
				s.End()
			}
		}()
	}
	wg.Wait()
	if got := len(events(t, tw, &buf)); got != 8*50 {
		t.Fatalf("got %d events, want %d", got, 8*50)
	}
}

// TestUntracedSpanAllocs bounds the cost of an untraced nested span: the
// child path, the span and the derived context. The span doubles as its
// children's context frame, so carrying a trace writer costs no allocation.
func TestUntracedSpanAllocs(t *testing.T) {
	p := New()
	c := &simclock.Clock{}
	ctx, root := p.StartClocked(context.Background(), "iteration", c)
	defer root.End()
	if got := testing.AllocsPerRun(200, func() {
		_, s := p.StartClocked(ctx, "suggest", c)
		s.End()
	}); got > 3 {
		t.Errorf("untraced nested Start/End allocates %v times, want ≤ 3", got)
	}
	if got := testing.AllocsPerRun(200, func() { p.Begin("gp.fit").End() }); got > 1 {
		t.Errorf("Begin/End allocates %v times, want ≤ 1", got)
	}
}
