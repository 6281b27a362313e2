package cliobs

import (
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"unico/internal/perfprof"
	"unico/internal/simclock"
)

// TestStartTracesUnderReturnedContext: with -trace set, clocked spans opened
// under the returned context reach the file once the session closes.
func TestStartTracesUnderReturnedContext(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	ctx, s, err := Start(context.Background(), "test", Flags{
		LogFormat: "text", LogLevel: "error",
		MetricsAddr: "127.0.0.1:0",
		TraceFile:   path,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := &simclock.Clock{}
	_, span := perfprof.New().StartClocked(ctx, "iteration", c)
	c.Advance(60)
	span.End()
	s.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("trace has %d lines, want metadata + one span:\n%s", len(lines), data)
	}
	var ev struct {
		Name string  `json:"name"`
		Dur  float64 `json:"dur"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Name != "iteration" || ev.Dur != 60e6 {
		t.Errorf("span event = %+v, want iteration lasting 60 s of simulated time", ev)
	}
}

// TestStartFailures: bad flags fail Start with an error and no session.
func TestStartFailures(t *testing.T) {
	for name, f := range map[string]Flags{
		"log level":      {LogFormat: "text", LogLevel: "loud"},
		"pprof interval": {LogFormat: "text", LogLevel: "error", PprofInterval: time.Second},
		"trace file":     {LogFormat: "text", LogLevel: "error", TraceFile: filepath.Join(t.TempDir(), "missing", "t.jsonl")},
	} {
		if _, s, err := Start(context.Background(), "test", f); err == nil || s != nil {
			t.Errorf("%s: Start = (%v, %v), want an error and no session", name, s, err)
		}
	}
}

func TestCaptureOffWithoutDir(t *testing.T) {
	c, err := Capture(context.Background(), "", 0, slog.Default())
	if c != nil || err != nil {
		t.Fatalf("Capture without a dir = (%v, %v), want (nil, nil)", c, err)
	}
}
