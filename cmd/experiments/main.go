// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run all            # every experiment
//	experiments -run table1         # Table 1 (edge device)
//	experiments -run table2         # Table 2 (cloud device)
//	experiments -run fig7           # hypervolume-vs-cost curves
//	experiments -run fig8           # robustness-indicator study
//	experiments -run fig9           # generalization to unseen DNNs
//	experiments -run fig10          # ablation
//	experiments -run fig11          # Ascend-like case study
//	experiments -scale paper|small  # experiment sizes (default small)
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"unico/internal/cliobs"
	"unico/internal/evalcache"
	"unico/internal/experiments"
	"unico/internal/hw"
	"unico/internal/telemetry"
)

func main() {
	run := flag.String("run", "all", "experiment id: all,table1,table2,fig7,fig8,fig9,fig10,fig11")
	scale := flag.String("scale", "small", "paper | small")
	seed := flag.Int64("seed", 0, "override the scale's seed (0 keeps default)")
	searchWorkers := flag.Int("search-workers", 0, "parallel acquisition workers inside each suggestion step (0 keeps the engine default; results identical at every setting)")
	traceFile := flag.String("trace", "", "write search events of every run as Chrome-trace JSONL to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while running")
	progress := flag.Bool("progress", false, "print per-iteration convergence of every run to stderr")
	useCache := flag.Bool("cache", false, "serve repeated PPA evaluations from a content-addressed cache shared by all runs")
	cacheSize := flag.Int("cache-size", 0, "evaluation-cache entry bound (0 = default ~1M; implies -cache)")
	cacheFile := flag.String("cache-file", "", "warm-start the cache from this JSONL file and save it back on exit (implies -cache)")
	checkpointDir := flag.String("checkpoint-dir", "", "write per-run crash-safe checkpoints into this directory")
	resume := flag.Bool("resume", false, "continue runs from existing checkpoints in -checkpoint-dir")
	flightDir := flag.String("flight-record", "", "write one flight-record artifact per co-search run (<run>.run.jsonl) into this directory; view with unicoreport")
	logFormat := flag.String("log-format", "text", "log output format: text | json")
	logLevel := flag.String("log-level", "info", "log level: debug | info | warn | error")
	pprofDir := flag.String("pprof-dir", "", "write run-ID-stamped pprof CPU/heap profiles to this directory (enables GET /debug/unico/capture when -metrics-addr is set)")
	pprofInterval := flag.Duration("pprof-interval", 0, "capture a heap and CPU profile every interval for the sweep's duration (requires -pprof-dir)")
	spanLog := flag.String("span-log", "", "record distributed-trace spans of every run as JSONL to this file; analyze with unicotrace")
	flag.Parse()

	// SIGINT/SIGTERM cancel in-flight co-searches; with -checkpoint-dir set,
	// each interrupted run leaves a resumable checkpoint behind.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	// One sweep = one correlation ID across all its runs and dist requests;
	// -trace rides on ctx, which every runner passes to its co-searches.
	ctx, obs, err := cliobs.Start(ctx, "experiments", cliobs.Flags{
		LogFormat: *logFormat, LogLevel: *logLevel,
		SpanLog:  *spanLog,
		PprofDir: *pprofDir, PprofInterval: *pprofInterval,
		MetricsAddr: *metricsAddr,
		TraceFile:   *traceFile,
	})
	if err != nil {
		os.Exit(1)
	}
	defer obs.Close()
	logger := obs.Logger

	if *useCache || *cacheSize > 0 || *cacheFile != "" {
		cache := evalcache.New(*cacheSize)
		if *cacheFile != "" {
			n, err := cache.LoadFile(*cacheFile)
			if err != nil {
				logger.Error("cache warm-start failed", slog.Any("err", err))
				obs.Exit(1)
			}
			logger.Info("warm-started cache", slog.Int("entries", n), slog.String("file", *cacheFile))
			defer func() {
				if err := cache.SaveFile(*cacheFile); err != nil {
					logger.Error("cache save failed", slog.Any("err", err))
				}
			}()
		}
		// The runners build their platforms deep inside; the process-wide
		// cache hook reaches them all.
		evalcache.SetProcess(cache)
		defer func() {
			st := cache.Stats()
			logger.Info("evaluation cache totals",
				slog.Uint64("hits", st.Hits), slog.Uint64("misses", st.Misses))
		}()
	}
	if *progress {
		telemetry.SetDefaultProgress(func(p telemetry.SearchProgress) {
			fmt.Fprintf(os.Stderr, "iter %3d  sim %7.2f h  hv %.4g  front %d  evals %d\n",
				p.Iter, p.SimHours, p.Hypervolume, p.FrontSize, p.Evals)
		})
	}

	var s experiments.Scale
	switch *scale {
	case "paper":
		s = experiments.PaperScale()
	case "small":
		s = experiments.SmallScale()
	default:
		logger.Error("unknown scale", slog.String("scale", *scale))
		obs.Exit(1)
	}
	if *seed != 0 {
		s.Seed = *seed
	}
	s.SearchWorkers = *searchWorkers
	s.Context = ctx
	s.Resume = *resume
	if *checkpointDir != "" {
		if err := os.MkdirAll(*checkpointDir, 0o755); err != nil {
			logger.Error("checkpoint dir setup failed", slog.Any("err", err))
			obs.Exit(1)
		}
		s.CheckpointDir = *checkpointDir
	}
	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			logger.Error("flight-record dir setup failed", slog.Any("err", err))
			obs.Exit(1)
		}
		s.FlightDir = *flightDir
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*run, ",") {
		want[strings.TrimSpace(id)] = true
	}
	all := want["all"]
	ran := false

	if all || want["table1"] {
		experiments.RunEdgeCloudTable(os.Stdout, hw.Edge, s)
		ran = true
	}
	if all || want["table2"] {
		experiments.RunEdgeCloudTable(os.Stdout, hw.Cloud, s)
		ran = true
	}
	if all || want["fig7"] {
		experiments.RunHypervolumeCurves(os.Stdout, hw.Edge, s)
		experiments.RunHypervolumeCurves(os.Stdout, hw.Cloud, s)
		ran = true
	}
	if all || want["fig8"] {
		experiments.RunRobustnessIndicator(os.Stdout, s)
		ran = true
	}
	if all || want["fig9"] {
		experiments.RunGeneralization(os.Stdout, s)
		ran = true
	}
	if all || want["fig10"] {
		experiments.RunAblation(os.Stdout, s)
		ran = true
	}
	if all || want["fig11"] {
		experiments.RunAscend(os.Stdout, s)
		ran = true
	}
	if !ran {
		logger.Error("nothing matched", slog.String("run", *run))
		obs.Exit(1)
	}
}
