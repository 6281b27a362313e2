// Package cliobs is the observability bootstrap of the co-search commands
// (cmd/unico, cmd/experiments): structured logging and the run ID, the
// distributed-trace span log, pprof capture, the debug server with the
// /debug/unico dashboards, and the Chrome search trace. Start brings up
// whatever the parsed flags ask for and returns a Session that stops it all
// again; the servers and load generator reuse the SpanLog and Capture
// pieces.
package cliobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"time"

	"unico/internal/buildinfo"
	"unico/internal/disttrace"
	"unico/internal/flightrec"
	"unico/internal/logx"
	"unico/internal/perfprof"
	"unico/internal/runid"
	"unico/internal/telemetry"
)

// Flags are the observability flag values of a co-search command.
type Flags struct {
	LogFormat, LogLevel string
	// SpanLog records distributed-trace spans (process kind "client").
	SpanLog string
	// PprofDir and PprofInterval configure run-ID-stamped pprof capture.
	PprofDir      string
	PprofInterval time.Duration
	// MetricsAddr serves /metrics, /debug/vars, /debug/pprof and the
	// /debug/unico dashboards.
	MetricsAddr string
	// TraceFile receives the Chrome search trace of every co-search run
	// under the returned context.
	TraceFile string
}

// Session is a started bootstrap.
type Session struct {
	Logger *slog.Logger
	stops  []func() // run in reverse order by Close
}

// Start sets up logging from f (installing a fresh run ID and publishing
// the build info), then each piece f enables. The returned context carries
// the search-trace writer when f.TraceFile is set, so every co-search run
// under it is traced. Start reports a failure itself — on stderr, prefixed
// with cmd, before the logger exists, and through the logger after — stops
// the pieces already started and returns the error; the caller only exits.
func Start(ctx context.Context, cmd string, f Flags) (context.Context, *Session, error) {
	logger, err := logx.Setup(f.LogFormat, f.LogLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, cmd+":", err)
		return ctx, nil, err
	}
	// One invocation = one correlation ID: every log record, dist request
	// and flight-record header carries it from the first line.
	runid.Set(runid.New())
	buildinfo.Publish()

	s := &Session{Logger: logger}
	fail := func(msg string, err error) (context.Context, *Session, error) {
		logger.Error(msg, slog.Any("err", err))
		s.Close()
		return ctx, nil, err
	}
	if f.SpanLog != "" {
		rec, err := SpanLog(f.SpanLog, "client")
		if err != nil {
			return fail("span log setup failed", err)
		}
		s.stops = append(s.stops, func() { _ = rec.Close() })
	}
	capture, err := Capture(ctx, f.PprofDir, f.PprofInterval, logger)
	if err != nil {
		return fail("pprof capture setup failed", err)
	}
	if f.MetricsAddr != "" {
		flightrec.SetLive(flightrec.NewLive())
		debug := telemetry.NewDebugServer(f.MetricsAddr, nil)
		debug.Mux().Handle("GET /debug/unico", flightrec.DashboardHandler(flightrec.ActiveLive()))
		debug.Mux().Handle("GET /debug/unico/phases", perfprof.PhasesHandler())
		if capture != nil {
			debug.Mux().Handle("GET /debug/unico/capture", capture.Handler())
		}
		debug.Start(func(err error) {
			logger.Error("metrics server failed", slog.Any("err", err))
		})
		s.stops = append(s.stops, func() {
			sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
			defer cancel()
			_ = debug.Shutdown(sctx)
		})
	}
	if f.TraceFile != "" {
		file, err := os.Create(f.TraceFile)
		if err != nil {
			return fail("trace file setup failed", err)
		}
		tw := perfprof.NewTraceWriter(file)
		s.stops = append(s.stops, func() {
			if err := errors.Join(tw.Flush(), file.Close()); err != nil {
				logger.Error("trace file write failed", slog.Any("err", err))
			}
		})
		ctx = perfprof.WithTrace(ctx, tw)
	}
	return ctx, s, nil
}

// Close stops what Start started, in reverse order: it flushes the search
// trace, shuts the debug server down and closes the span log.
func (s *Session) Close() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
	s.stops = nil
}

// Exit closes the session and exits the process with code.
func (s *Session) Exit(code int) {
	s.Close()
	os.Exit(code)
}

// SpanLog records this process's distributed-trace spans, of process kind
// proc, as JSONL to path. Close the returned recorder on exit.
func SpanLog(path, proc string) (*disttrace.Recorder, error) {
	rec, err := disttrace.NewRecorder(path, proc)
	if err != nil {
		return nil, err
	}
	disttrace.Enable(rec)
	return rec, nil
}

// Capture opens run-ID-stamped pprof capture into dir — nil when dir is
// empty — and, when every is positive, captures a heap and a CPU profile
// every interval until ctx ends, logging failures.
func Capture(ctx context.Context, dir string, every time.Duration, logger *slog.Logger) (*perfprof.Capture, error) {
	if every > 0 && dir == "" {
		return nil, errors.New("-pprof-interval requires -pprof-dir")
	}
	if dir == "" {
		return nil, nil
	}
	c, err := perfprof.NewCapture(dir)
	if err != nil {
		return nil, err
	}
	if every > 0 {
		go c.Every(ctx, every, func(err error) {
			logger.Warn("interval pprof capture failed", slog.Any("err", err))
		})
	}
	return c, nil
}
