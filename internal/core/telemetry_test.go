package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"unico/internal/perfprof"
)

// TestProgressFiresPerIteration asserts the Progress callback fires exactly
// once per MOBO iteration, in order, with monotone non-decreasing simulated
// hours and internally consistent fields.
func TestProgressFiresPerIteration(t *testing.T) {
	var reports []Progress
	opt := smallOpts(3)
	opt.Progress = func(p Progress) { reports = append(reports, p) }
	res := Run(testPlatform(), opt)

	if len(reports) != len(res.Trace) {
		t.Fatalf("progress fired %d times, trace has %d iterations", len(reports), len(res.Trace))
	}
	prevHours := 0.0
	for i, p := range reports {
		if p.Iter != i+1 {
			t.Errorf("report %d has Iter=%d, want %d", i, p.Iter, i+1)
		}
		if p.SimHours < prevHours {
			t.Errorf("simulated hours decreased at iter %d: %v < %v", p.Iter, p.SimHours, prevHours)
		}
		prevHours = p.SimHours
		if p.FrontSize < 0 || p.Hypervolume < 0 {
			t.Errorf("iter %d: negative front size or hypervolume: %+v", p.Iter, p)
		}
		if p.Evals <= 0 {
			t.Errorf("iter %d: no evaluations reported", p.Iter)
		}
	}
	last := reports[len(reports)-1]
	if last.Evals != res.Evals {
		t.Errorf("final progress evals = %d, result evals = %d", last.Evals, res.Evals)
	}
	if math.Abs(last.SimHours-res.Hours) > 1e-9 {
		t.Errorf("final progress hours = %v, result hours = %v", last.SimHours, res.Hours)
	}
	if last.FrontSize != len(res.Front) {
		t.Errorf("final progress front = %d, result front = %d", last.FrontSize, len(res.Front))
	}
}

// tracedRun runs opt with a perfprof trace writer on the context and
// returns the result and the trace's events, metadata line excluded.
func tracedRun(t *testing.T, opt Options) (Result, []traceEvent) {
	t.Helper()
	var buf bytes.Buffer
	tw := perfprof.NewTraceWriter(&buf)
	res := RunContext(perfprof.WithTrace(context.Background(), tw), testPlatform(), opt)
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	var evs []traceEvent
	for _, line := range lines[1:] {
		var e traceEvent
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad trace line: %v\n%s", err, line)
		}
		evs = append(evs, e)
	}
	return res, evs
}

type traceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
}

// TestTelemetryPreservesDeterminism is the acceptance criterion: a run with
// a trace writer and progress enabled must be bit-identical to the same
// seed run with both disabled.
func TestTelemetryPreservesDeterminism(t *testing.T) {
	plain := Run(testPlatform(), smallOpts(11))

	opt := smallOpts(11)
	opt.Progress = func(Progress) {}
	traced, evs := tracedRun(t, opt)

	if !reflect.DeepEqual(plain, traced) {
		t.Fatal("tracing/progress changed the search result")
	}
	if len(evs) == 0 {
		t.Fatal("trace writer captured no events")
	}
}

// TestRunEmitsExpectedSpans checks the trace stream carries one event per
// clocked phase (iterations, suggestions, SH rungs, surrogate updates,
// hypervolume) with simulated-time stamps, each phase inside its iteration.
func TestRunEmitsExpectedSpans(t *testing.T) {
	res, evs := tracedRun(t, smallOpts(5))

	count := map[string]int{}
	maxTS := 0.0
	var pending []traceEvent // phases awaiting their iteration, which ends last
	for _, e := range evs {
		count[e.Name]++
		maxTS = math.Max(maxTS, e.TS)
		if e.Name != "iteration" {
			if e.Cat != "iteration" {
				t.Errorf("%s: cat = %q, want iteration", e.Name, e.Cat)
			}
			pending = append(pending, e)
			continue
		}
		const eps = 1e-3 // µs of float rounding
		for _, c := range pending {
			if c.TS < e.TS-eps || c.TS+c.Dur > e.TS+e.Dur+eps {
				t.Errorf("%s [%v, %v] lies outside its iteration [%v, %v]",
					c.Name, c.TS, c.TS+c.Dur, e.TS, e.TS+e.Dur)
			}
		}
		pending = pending[:0]
	}
	if len(pending) != 0 {
		t.Errorf("%d phase events follow the last iteration", len(pending))
	}
	for _, want := range []string{"iteration", "suggest", "sh.rung", "update", "hypervolume"} {
		if count[want] == 0 {
			t.Errorf("no %q spans in trace; got %v", want, count)
		}
	}
	if count["iteration"] != len(res.Trace) {
		t.Errorf("iteration spans = %d, iterations = %d", count["iteration"], len(res.Trace))
	}
	// Simulated timestamps should reach the run's simulated span (µs).
	if wantUS := res.Hours * 3600 * 1e6; maxTS < wantUS/2 {
		t.Errorf("max trace ts %v µs is far below the simulated run length %v µs", maxTS, wantUS)
	}
}
