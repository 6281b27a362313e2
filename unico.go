// Package unico is a from-scratch Go implementation of UNICO — Unified
// Hardware-Software Co-Optimization for Robust Neural Network Acceleration
// (MICRO 2023) — together with every substrate its evaluation depends on:
// the spatial-accelerator analytical cost model, an Ascend-like cycle-level
// simulator, software-mapping search tools, multi-objective Bayesian
// optimization with the high-fidelity surrogate update, modified successive
// halving, the hardware robustness metric R, and the HASCO-like, NSGA-II
// and MOBOHB baselines.
//
// This package is the facade: it exposes platform constructors, a single
// Optimize entry point with method presets, and design/result types that
// hide the internal machinery. Power users can drop to the internal
// packages (importable within this module) for full control; see DESIGN.md
// for the system inventory.
//
// A minimal co-optimization:
//
//	p, err := unico.OpenSourcePlatform(unico.Edge, "MobileNet")
//	if err != nil { ... }
//	res, err := unico.Optimize(p, unico.Config{})
//	fmt.Println(res.Best.HW, res.Best.LatencyMs)
package unico

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"unico/internal/baselines"
	"unico/internal/buildinfo"
	"unico/internal/checkpoint"
	"unico/internal/core"
	"unico/internal/dist"
	"unico/internal/evalcache"
	"unico/internal/flightrec"
	"unico/internal/hw"
	"unico/internal/mapsearch"
	"unico/internal/perfprof"
	"unico/internal/platform"
	"unico/internal/runid"
	"unico/internal/simclock"
	"unico/internal/workload"
)

// Scenario selects the deployment constraints of the open-source platform.
type Scenario = hw.Scenario

// Deployment scenarios (Tables 1 and 2 of the paper).
const (
	Edge  = hw.Edge  // power < 2 W
	Cloud = hw.Cloud // power < 20 W
)

// Method selects the co-optimization algorithm.
type Method int

const (
	// MethodUNICO is the paper's full algorithm: MOBO with high-fidelity
	// surrogate updates, modified successive halving and the robustness
	// objective.
	MethodUNICO Method = iota
	// MethodHASCO is the HASCO-like baseline (champion update, no early
	// stopping, sequential).
	MethodHASCO
	// MethodMOBOHB is the multi-objective BOHB baseline (default SH).
	MethodMOBOHB
	// MethodNSGAII is the NSGA-II baseline.
	MethodNSGAII
)

func (m Method) String() string {
	switch m {
	case MethodUNICO:
		return "UNICO"
	case MethodHASCO:
		return "HASCO"
	case MethodMOBOHB:
		return "MOBOHB"
	case MethodNSGAII:
		return "NSGAII"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Platform is an accelerator platform ready for co-optimization.
type Platform struct {
	inner core.Platform
}

// OpenSourcePlatform builds the open-source spatial-accelerator platform
// (MAESTRO-like analytical PPA, FlexTensor-like mapping search) for the
// named networks from the model zoo. Listing several networks
// co-optimizes their aggregate PPA, the multi-workload regime of the
// paper's generalization studies.
func OpenSourcePlatform(sc Scenario, networks ...string) (*Platform, error) {
	ws, err := lookup(networks)
	if err != nil {
		return nil, err
	}
	return &Platform{inner: platform.NewSpatial(sc, ws, mapsearch.FlexTensorLike)}, nil
}

// AscendLikePlatform builds the Ascend-like industrial platform
// (cycle-level CAModel, depth-first buffer-fusion schedule search, 200 mm²
// area cap) for the named networks.
func AscendLikePlatform(networks ...string) (*Platform, error) {
	ws, err := lookup(networks)
	if err != nil {
		return nil, err
	}
	return &Platform{inner: platform.NewAscend(ws, mapsearch.DepthFirst)}, nil
}

// OpenSourcePlatformFromJSON builds the open-source platform for custom
// networks defined in JSON files (see internal/workload's JSON format:
// {"name": ..., "layers": [{"kind": "conv"|"dwconv"|"gemm", ...}]}).
func OpenSourcePlatformFromJSON(sc Scenario, paths ...string) (*Platform, error) {
	ws, err := loadJSON(paths)
	if err != nil {
		return nil, err
	}
	return &Platform{inner: platform.NewSpatial(sc, ws, mapsearch.FlexTensorLike)}, nil
}

// AscendLikePlatformFromJSON builds the Ascend-like platform for custom
// networks defined in JSON files.
func AscendLikePlatformFromJSON(paths ...string) (*Platform, error) {
	ws, err := loadJSON(paths)
	if err != nil {
		return nil, err
	}
	return &Platform{inner: platform.NewAscend(ws, mapsearch.DepthFirst)}, nil
}

func loadJSON(paths []string) ([]workload.Workload, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("unico: no workload files given")
	}
	ws := make([]workload.Workload, len(paths))
	for i, p := range paths {
		w, err := workload.LoadJSONFile(p)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	return ws, nil
}

// RemoteOptions tunes the resilient worker clients built by
// RemoteOpenSourcePlatform. The zero value uses the dist package defaults:
// a 30 s request timeout, no retries, no client-side cache.
type RemoteOptions struct {
	// RequestTimeout bounds each worker request (default 30 s). A dead
	// worker then costs one timeout instead of a hung co-search.
	RequestTimeout time.Duration
	// MaxRetries retries idempotent requests (PPA evaluations) after
	// retryable failures, with exponential backoff and jitter.
	MaxRetries int
	// RetryBackoff is the initial retry delay (default 50 ms, doubling up
	// to MaxBackoff).
	RetryBackoff time.Duration
	// MaxBackoff caps the retry delay (default 2 s). It also caps how long
	// the client honors a server's Retry-After hint when a router or worker
	// sheds load (429/503).
	MaxBackoff time.Duration
	// Cache enables a shared client-side evaluation cache for direct PPA
	// requests (mapping-search jobs run worker-side; cache those with
	// ppaserver's -cache flag instead).
	Cache bool
	// CacheSize bounds the client-side cache (entries; 0 = default ~1M).
	CacheSize int
}

// RemoteOpenSourcePlatform builds the open-source platform over a pool of
// ppaserver worker URLs — the master/slave deployment of the paper's Fig. 6b.
// Workers that repeatedly fail are evicted from the job rotation and probed
// for re-admission; a single dead worker costs timeouts, not the run.
func RemoteOpenSourcePlatform(sc Scenario, workers []string, opts RemoteOptions, networks ...string) (*Platform, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("unico: no worker URLs given")
	}
	var cache *evalcache.Cache
	if opts.Cache || opts.CacheSize > 0 {
		cache = evalcache.New(opts.CacheSize)
	}
	clients := make([]*dist.Client, len(workers))
	for i, u := range workers {
		clients[i] = dist.NewClientOptions(u, nil, dist.Options{
			Timeout:      opts.RequestTimeout,
			MaxRetries:   opts.MaxRetries,
			RetryBackoff: opts.RetryBackoff,
			MaxBackoff:   opts.MaxBackoff,
			Cache:        cache,
		})
	}
	rp, err := dist.NewRemoteSpatialPlatform(clients, sc, networks)
	if err != nil {
		return nil, err
	}
	return &Platform{inner: rp}, nil
}

// Networks lists the model-zoo networks available to the platform
// constructors.
func Networks() []string {
	all := workload.All()
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.Name
	}
	return names
}

func lookup(networks []string) ([]workload.Workload, error) {
	if len(networks) == 0 {
		return nil, fmt.Errorf("unico: no networks given (see unico.Networks())")
	}
	ws := make([]workload.Workload, len(networks))
	for i, n := range networks {
		w, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	return ws, nil
}

// Describe renders the hardware configuration encoded at x.
func (p *Platform) Describe(x []float64) string { return p.inner.Describe(x) }

// Config parameterizes Optimize. The zero value runs full UNICO at the
// paper's defaults (N = 30, b_max = 300).
type Config struct {
	// Method selects the algorithm (default MethodUNICO).
	Method Method
	// BatchSize is the hardware batch N per iteration (default 30).
	BatchSize int
	// Iterations is the number of outer iterations (default 10).
	Iterations int
	// BudgetMax is the software-mapping budget b_max (default 300).
	BudgetMax int
	// Workers bounds parallel mapping-search jobs (default 8; the
	// HASCO-like method is sequential by definition).
	Workers int
	// SearchWorkers bounds the parallel acquisition scalarizations inside
	// each surrogate suggestion step (default 8; applies to UNICO, HASCO
	// and MOBO-HB). Unlike Workers it never enters the checkpoint
	// fingerprint: results are bit-identical at every setting, so it is a
	// pure wall-clock knob and may change across a kill/resume.
	SearchWorkers int
	// Seed makes the run deterministic (default 1).
	Seed int64
	// DisableRobustness drops the sensitivity objective R from UNICO.
	DisableRobustness bool
	// TimeBudgetHours stops the search once the simulated clock passes it.
	TimeBudgetHours float64
	// Cache serves repeated PPA evaluations from a content-addressed cache
	// instead of recomputing them. The engines are pure, so results are
	// bit-identical with and without it — only faster. (The simulated-clock
	// cost accounting is unchanged: the clock models the paper's evaluation
	// budget, not host CPU time.)
	Cache bool
	// CacheSize bounds the evaluation cache (entries; 0 = default ~1M).
	// Setting it implies Cache.
	CacheSize int
	// CacheFile warm-starts the cache from this JSONL file when it exists
	// and saves the cache back on completion. Setting it implies Cache.
	CacheFile string
	// CheckpointFile enables crash-safe checkpointing: a write-ahead journal
	// at CheckpointFile+".journal" records every completed iteration, and an
	// atomic snapshot at CheckpointFile is refreshed every CheckpointEvery
	// iterations. Not supported for MethodNSGAII. Checkpointing never
	// changes the search result.
	CheckpointFile string
	// CheckpointEvery is the snapshot cadence in iterations (default 10).
	CheckpointEvery int
	// Resume continues the run recorded at CheckpointFile instead of
	// starting over. The checkpoint must have been written by a run with
	// the same platform, method, seed and sizes; a mismatch is an error
	// (never a silently-hybrid run). With no checkpoint on disk the run
	// starts fresh, so -resume is safe to pass unconditionally.
	Resume bool
	// FlightRecordFile enables the flight recorder: a durable run.jsonl
	// artifact at this path with the run header (run ID, method, seed,
	// options fingerprint), one record per completed iteration (hypervolume,
	// UUL, feasible front, SH survivor curve, eval/cache counters) and a
	// final summary — readable with cmd/unicoreport or flightrec.Load. With
	// Resume, the recorder appends past the checkpoint replay boundary
	// without duplicating records, so a kill/resume run leaves an artifact
	// record-identical to an uninterrupted one. Recording never changes the
	// search result. Not supported for MethodNSGAII.
	FlightRecordFile string
	// RunID is the correlation ID stamped on the flight-record header and
	// installed process-wide (internal/runid) so log records and dist
	// requests carry it. Empty uses the already-installed process ID, or
	// generates a fresh one.
	RunID string
	// TraceWriter, if non-nil, receives the run's search phases (iteration,
	// suggest, sh.rung, sh.full_budget, update, hypervolume) as Chrome
	// trace_event JSONL on the simulated clock (open with a trace viewer
	// after `jq -s .`, or read line-by-line). Per-iteration numbers live in
	// the flight record. Tracing never changes the search result.
	TraceWriter io.Writer
	// Progress, if non-nil, is invoked after every optimizer iteration
	// with a convergence snapshot (UNICO, HASCO and MOBOHB; NSGA-II does
	// not run on the shared iteration engine).
	Progress func(IterationProgress)
}

// IterationProgress is one per-iteration convergence snapshot.
type IterationProgress struct {
	// Iter is the optimizer iteration (1-based).
	Iter int
	// SimHours is the simulated search cost so far.
	SimHours float64
	// Hypervolume is the feasible front's hypervolume against a running
	// nadir reference (comparable within a run).
	Hypervolume float64
	// UUL is the high-fidelity rule's current Upper Update Limit
	// (+Inf until the first surrogate update).
	UUL float64
	// FrontSize is the feasible Pareto front size.
	FrontSize int
	// Evaluations is the cumulative mapping budget spent.
	Evaluations int
}

func (c Config) normalize() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 30
	}
	if c.Iterations <= 0 {
		c.Iterations = 10
	}
	if c.BudgetMax <= 0 {
		c.BudgetMax = 300
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.SearchWorkers <= 0 {
		c.SearchWorkers = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Design is one hardware configuration with its co-optimized PPA.
type Design struct {
	// HW is the human-readable hardware description.
	HW string
	// X is the encoded design-space point (reusable with EvaluateOn).
	X []float64
	// LatencyMs, PowerMW, AreaMM2 are the PPA of the best mapping found.
	LatencyMs, PowerMW, AreaMM2 float64
	// Sensitivity is the robustness metric R (smaller = more robust).
	Sensitivity float64
}

// Result is the outcome of a co-optimization run.
type Result struct {
	// Front is the feasible Pareto front over (latency, power, area).
	Front []Design
	// Best is the min-Euclidean-distance representative of the front.
	Best Design
	// SimulatedHours is the search cost on the simulated clock (the
	// paper's Cost(h) columns).
	SimulatedHours float64
	// Evaluations is the number of mapping budget units spent.
	Evaluations int
	// CacheHits and CacheMisses report the evaluation cache's counters for
	// this run (both zero when Config.Cache was off).
	CacheHits, CacheMisses uint64
}

// Optimize runs the selected co-optimization method on the platform with a
// background context; see OptimizeContext.
func Optimize(p *Platform, cfg Config) (*Result, error) {
	//unicolint:allow ctxflow compatibility wrapper; cancellable callers use OptimizeContext
	return OptimizeContext(context.Background(), p, cfg)
}

// OptimizeContext runs the selected co-optimization method on the platform.
// Cancelling ctx stops the search at the next safe point and returns the
// partial result; with Config.CheckpointFile set, a final checkpoint is
// written first, so a later run with Config.Resume continues exactly where
// this one stopped. (MethodNSGAII does not run on the shared iteration
// engine and ignores ctx and checkpointing.)
func OptimizeContext(ctx context.Context, p *Platform, cfg Config) (*Result, error) {
	if p == nil {
		return nil, fmt.Errorf("unico: nil platform")
	}
	cfg = cfg.normalize()
	clock := &simclock.Clock{}

	inner := p.inner
	var cache *evalcache.Cache
	if cfg.Cache || cfg.CacheSize > 0 || cfg.CacheFile != "" {
		cache = evalcache.New(cfg.CacheSize)
		if cfg.CacheFile != "" {
			if _, err := cache.LoadFile(cfg.CacheFile); err != nil {
				return nil, err
			}
		}
		inner = withCache(inner, cache)
	}

	var sink *checkpoint.File
	var resume *core.ResumeState
	if cfg.CheckpointFile != "" {
		if cfg.Method == MethodNSGAII {
			return nil, fmt.Errorf("unico: checkpointing is not supported for MethodNSGAII")
		}
		if cfg.Resume && checkpoint.Exists(cfg.CheckpointFile) {
			rs, err := checkpoint.Load(cfg.CheckpointFile)
			if err != nil {
				return nil, err
			}
			resume = rs
		}
		var err error
		sink, err = checkpoint.Create(cfg.CheckpointFile)
		if err != nil {
			return nil, err
		}
		defer sink.Close()
	}
	applyCheckpoint := func(opt *core.Options) {
		if sink != nil {
			opt.Checkpoint = sink
		}
		opt.CheckpointEvery = cfg.CheckpointEvery
		opt.Resume = resume
	}

	runID := cfg.RunID
	if runID == "" {
		runID = runid.Current()
	}
	if runID == "" {
		runID = runid.New()
	}
	runid.Set(runID)

	if cfg.FlightRecordFile != "" && cfg.Method == MethodNSGAII {
		return nil, fmt.Errorf("unico: flight recording is not supported for MethodNSGAII")
	}
	var flight *flightrec.Recorder
	defer func() {
		if flight != nil {
			_ = flight.Close() // no-op after Finish; releases the file on early error paths
		}
	}()
	// applyFlight stamps the run header (identity + the same fingerprint the
	// checkpoint contract validates), opens the durable recorder when
	// configured, and announces the run to the live dashboard store. It runs
	// after applyCheckpoint so the resume boundary is known.
	applyFlight := func(opt *core.Options) error {
		hdr := flightrec.Header{
			RunID:       runID,
			StartedAt:   time.Now().UTC().Format(time.RFC3339), //unicolint:allow detclock wall-clock run metadata in the flight header; excluded from resume identity
			Revision:    buildinfo.Revision(),
			Method:      cfg.Method.String(),
			Workload:    workloadName(p.inner),
			Seed:        cfg.Seed,
			Batch:       cfg.BatchSize,
			MaxIter:     cfg.Iterations,
			BMax:        cfg.BudgetMax,
			Fingerprint: core.FingerprintFor(inner, *opt),
		}
		if cfg.FlightRecordFile == "" {
			flightrec.EmitLiveStart(hdr)
			return nil
		}
		var err error
		if resume != nil {
			flight, err = flightrec.Resume(cfg.FlightRecordFile, hdr, resume.LastIter())
			if err != nil {
				return err
			}
			// Seed the dashboard with the replayed history the artifact kept,
			// so the live curve covers the whole run, not just the suffix.
			if d, _, lerr := flightrec.Load(cfg.FlightRecordFile); lerr == nil {
				flightrec.EmitLiveResume(hdr, d.Iters)
			} else {
				flightrec.EmitLiveStart(hdr)
			}
		} else {
			flight, err = flightrec.Create(cfg.FlightRecordFile, hdr)
			if err != nil {
				return err
			}
			flightrec.EmitLiveStart(hdr)
		}
		var fsink flightrec.Sink = flight
		if cache != nil {
			fsink = cacheStampSink{inner: flight, cache: cache}
		}
		opt.Flight = fsink
		return nil
	}

	if cfg.TraceWriter != nil {
		tw := perfprof.NewTraceWriter(cfg.TraceWriter)
		defer tw.Flush()
		ctx = perfprof.WithTrace(ctx, tw)
	}
	var progress core.ProgressFunc
	if cfg.Progress != nil {
		progress = func(p core.Progress) {
			cfg.Progress(IterationProgress{
				Iter:        p.Iter,
				SimHours:    p.SimHours,
				Hypervolume: p.Hypervolume,
				UUL:         p.UUL,
				FrontSize:   p.FrontSize,
				Evaluations: p.Evals,
			})
		}
	}

	var res core.Result
	switch cfg.Method {
	case MethodUNICO:
		opt := core.UNICOOptions(cfg.BatchSize, cfg.Iterations, cfg.BudgetMax, cfg.Seed)
		opt.UseRobustness = !cfg.DisableRobustness
		opt.Workers = cfg.Workers
		opt.SearchWorkers = cfg.SearchWorkers
		opt.Clock = clock
		opt.TimeBudgetHours = cfg.TimeBudgetHours
		opt.Progress = progress
		applyCheckpoint(&opt)
		if err := applyFlight(&opt); err != nil {
			return nil, err
		}
		res = core.RunContext(ctx, inner, opt)
	case MethodHASCO:
		opt := baselines.HASCOOptions(cfg.BatchSize, cfg.Iterations, cfg.BudgetMax, cfg.Seed)
		opt.SearchWorkers = cfg.SearchWorkers
		opt.Clock = clock
		opt.TimeBudgetHours = cfg.TimeBudgetHours
		opt.Progress = progress
		applyCheckpoint(&opt)
		if err := applyFlight(&opt); err != nil {
			return nil, err
		}
		res = core.RunContext(ctx, inner, opt)
	case MethodMOBOHB:
		opt := baselines.MOBOHBOptions(cfg.BatchSize, cfg.Iterations, cfg.BudgetMax, cfg.Seed)
		opt.Workers = cfg.Workers
		opt.SearchWorkers = cfg.SearchWorkers
		opt.Clock = clock
		opt.TimeBudgetHours = cfg.TimeBudgetHours
		opt.Progress = progress
		applyCheckpoint(&opt)
		if err := applyFlight(&opt); err != nil {
			return nil, err
		}
		res = core.RunContext(ctx, inner, opt)
	case MethodNSGAII:
		res = baselines.NSGAII(inner, baselines.NSGAIIOptions{
			Pop:             cfg.BatchSize,
			Generations:     cfg.Iterations,
			BMax:            cfg.BudgetMax,
			Workers:         cfg.Workers,
			Seed:            cfg.Seed,
			Clock:           clock,
			TimeBudgetHours: cfg.TimeBudgetHours,
		})
	default:
		return nil, fmt.Errorf("unico: unknown method %v", cfg.Method)
	}
	if res.CheckpointErr != nil && errors.Is(res.CheckpointErr, core.ErrResumeMismatch) {
		// The run never started: the checkpoint belongs to a different
		// configuration and continuing would corrupt both.
		return nil, res.CheckpointErr
	}

	out := &Result{SimulatedHours: res.Hours, Evaluations: res.Evals}
	for _, c := range res.Front {
		out.Front = append(out.Front, design(p, c))
	}
	if rep, ok := core.Representative(res.Front); ok {
		out.Best = design(p, rep)
	}
	if cache != nil {
		st := cache.Stats()
		out.CacheHits, out.CacheMisses = st.Hits, st.Misses
		if cfg.CacheFile != "" {
			if err := cache.SaveFile(cfg.CacheFile); err != nil {
				// The search itself succeeded; hand back the result along
				// with the save failure.
				return out, err
			}
		}
	}
	// Seal the flight record: the summary's convergence fields are filled
	// from the last iteration by the recorder; we supply what the iteration
	// stream cannot know. A write failure is non-fatal to the search, like a
	// checkpoint failure.
	var flightErr error
	if cfg.Method != MethodNSGAII {
		sum := flightrec.Summary{Interrupted: ctx.Err() != nil}
		sum.CacheHits, sum.CacheMisses = out.CacheHits, out.CacheMisses
		if flight != nil {
			flightErr = flight.Finish(sum)
		}
		flightrec.EmitLiveFinish(sum)
	}

	// A mid-run checkpoint write failure is non-fatal to the search; hand
	// back the result along with it so callers know resume coverage is
	// incomplete.
	if res.CheckpointErr != nil {
		return out, res.CheckpointErr
	}
	return out, flightErr
}

// cacheStampSink forwards flight records with the evaluation cache's
// cumulative counters stamped on: the cache lives at this facade layer, so
// core cannot fill these fields itself.
type cacheStampSink struct {
	inner flightrec.Sink
	cache *evalcache.Cache
}

func (s cacheStampSink) RecordIteration(it flightrec.Iteration) {
	st := s.cache.Stats()
	it.CacheHits, it.CacheMisses = st.Hits, st.Misses
	s.inner.RecordIteration(it)
}

// workloadName extracts the platform's combined workload name, when exposed.
func workloadName(p core.Platform) string {
	if wp, ok := p.(interface{ Workload() workload.Workload }); ok {
		return wp.Workload().Name
	}
	return ""
}

// withCache returns a platform whose PPA engines are wrapped with c, leaving
// the caller's platform untouched. Platforms without local engines (the
// remote master-side platform) pass through: their caching lives worker-side
// or in the worker clients.
func withCache(inner core.Platform, c *evalcache.Cache) core.Platform {
	switch pl := inner.(type) {
	case *platform.Spatial:
		cp := *pl
		return cp.EnableCache(c)
	case *platform.Ascend:
		cp := *pl
		return cp.EnableCache(c)
	}
	return inner
}

func design(p *Platform, c core.Candidate) Design {
	return Design{
		HW:          p.inner.Describe(c.X),
		X:           c.X,
		LatencyMs:   c.Metrics.LatencyMs,
		PowerMW:     c.Metrics.PowerMW,
		AreaMM2:     c.Metrics.AreaMM2,
		Sensitivity: c.Sensitivity,
	}
}

// EvaluateOn runs an individual software-mapping search for an existing
// design on a (possibly unseen) network and returns the achieved PPA — the
// validation procedure of the paper's generalization studies.
func EvaluateOn(p *Platform, d Design, budget int, seed int64) (Design, error) {
	if budget <= 0 {
		budget = 300
	}
	job := p.inner.NewJob(d.X, seed)
	job.Advance(budget)
	met, ok := job.Best()
	if !ok {
		return Design{}, fmt.Errorf("unico: no feasible mapping for %s on this platform", d.HW)
	}
	return Design{
		HW: d.HW, X: d.X,
		LatencyMs: met.LatencyMs, PowerMW: met.PowerMW, AreaMM2: met.AreaMM2,
	}, nil
}
