package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"unico/internal/camodel"
	"unico/internal/checkpoint"
	"unico/internal/core"
	"unico/internal/dist"
	"unico/internal/evalcache"
	"unico/internal/fleet"
	"unico/internal/flightrec"
	"unico/internal/hw"
	"unico/internal/maestro"
	"unico/internal/mapsearch"
	"unico/internal/pareto"
	"unico/internal/perfprof"
	"unico/internal/platform"
	"unico/internal/runid"
	"unico/internal/simclock"
	"unico/internal/telemetry"
	"unico/internal/workload"
)

// setupSamples is how many times an untraced seed's set-up is built; all
// but the last are torn down at once. setup_s is the median, so one slow
// build (a slow fsync, page faults) does not set the figure.
const setupSamples = 9

// instance is one co-search's freshly built world: platform, caches, fleet
// and durable sinks in their own temp dir.
type instance struct {
	dir     string
	plat    core.Platform
	opt     core.Options
	ckpt    *checkpoint.File
	flight  *flightrec.Recorder
	caches  []*evalcache.Cache
	rpc     *rpcTransport // fleet-served only
	servers []*httptest.Server
	client  *http.Transport // the dist client's connection pool
}

// build constructs the instance for one seed. With a recorder it installs
// the layer wrappers; without one it builds exactly what the CLI builds.
func build(sh shape, seed int64, workdir string, rec *recorder) (*instance, error) {
	in := &instance{}
	dir, err := os.MkdirTemp(workdir, sh.name+"-")
	if err != nil {
		return nil, fmt.Errorf("temp dir: %w", err)
	}
	in.dir = dir
	if err := in.buildPlatform(sh, rec); err != nil {
		in.close()
		return nil, err
	}

	opt := core.UNICOOptions(sh.batch, sh.iters, sh.bmax, seed)
	opt.Workers = sh.workers
	opt.SearchWorkers = sh.searchWorkers
	opt.Clock = &simclock.Clock{}

	if in.ckpt, err = checkpoint.Create(filepath.Join(dir, "run.ckpt")); err != nil {
		in.close()
		return nil, err
	}
	hdr := flightrec.Header{
		RunID:       runid.Current(),
		Method:      "UNICO",
		Workload:    sh.name,
		Seed:        seed,
		Batch:       sh.batch,
		MaxIter:     sh.iters,
		BMax:        sh.bmax,
		Fingerprint: core.FingerprintFor(in.plat, opt),
	}
	if in.flight, err = flightrec.Create(filepath.Join(dir, "run.flight.jsonl"), hdr); err != nil {
		in.close()
		return nil, err
	}
	opt.Checkpoint, opt.Flight = in.ckpt, in.flight
	if rec != nil {
		in.plat = &tracedPlatform{Platform: in.plat, rec: rec}
		opt.Checkpoint = tracedCheckpoint{inner: in.ckpt, rec: rec}
		opt.Flight = tracedFlight{inner: in.flight, rec: rec}
	}
	in.opt = opt
	return in, nil
}

func (in *instance) buildPlatform(sh shape, rec *recorder) error {
	switch sh.name {
	case paperEdge:
		p := platform.NewSpatial(hw.Edge, []workload.Workload{workload.MobileNet()}, mapsearch.FlexTensorLike)
		// Set explicitly so a process-wide cache could never slip in.
		p.Engine = maestro.Engine{}
		if rec != nil {
			p.Engine = timedSpatial{inner: p.Engine, b: &rec.maestro}
		}
		in.plat = p
	case ascendDLEU:
		p := platform.NewAscend([]workload.Workload{workload.DLEU()}, mapsearch.DepthFirst)
		c := evalcache.New(0)
		in.caches = append(in.caches, c)
		var eng mapsearch.AscendEngine = camodel.Engine{}
		if rec != nil {
			eng = timedAscend{inner: eng, b: &rec.camodel}
		}
		p.Engine = evalcache.Ascend{Inner: eng, Cache: c}
		if rec != nil {
			p.Engine = timedAscend{inner: p.Engine, b: &rec.cache}
		}
		in.plat = p
	case fleetServed:
		return in.buildFleet(rec)
	default:
		return fmt.Errorf("no platform for workload %q", sh.name)
	}
	return nil
}

// buildFleet starts three loopback shards over cached engines, as
// `ppaserver -cache` builds them, a router in front, and the master's
// remote platform over one dist client. The router's background prober is
// not started: one synchronous ProbeAll admits the healthy shards, and a
// prober ticking during the run would add work no co-search asked for.
func (in *instance) buildFleet(rec *recorder) error {
	const shards = 3
	urls := make([]string, shards)
	for i := range urls {
		c := evalcache.New(0)
		in.caches = append(in.caches, c)
		var sp mapsearch.SpatialEngine = maestro.Engine{}
		var as mapsearch.AscendEngine = camodel.Engine{}
		if rec != nil {
			sp = timedSpatial{inner: sp, b: &rec.maestro}
			as = timedAscend{inner: as, b: &rec.camodel}
		}
		sp = evalcache.Spatial{Inner: sp, Cache: c}
		as = evalcache.Ascend{Inner: as, Cache: c}
		if rec != nil {
			sp = timedSpatial{inner: sp, b: &rec.cache}
			as = timedAscend{inner: as, b: &rec.cache}
		}
		h := dist.NewServerWith(sp, as).Handler()
		if rec != nil {
			h = tracedHandler(h, rec, "dist.shard")
		}
		srv := httptest.NewServer(h)
		in.servers = append(in.servers, srv)
		urls[i] = srv.URL
	}
	router, err := fleet.NewRouter(urls, fleet.Options{})
	if err != nil {
		return err
	}
	rh := router.Handler()
	if rec != nil {
		rh = tracedHandler(rh, rec, "fleet.router")
	}
	rsrv := httptest.NewServer(rh)
	// Close the router before the shards it forwards to.
	in.servers = append([]*httptest.Server{rsrv}, in.servers...)
	router.ProbeAll(context.Background())
	for _, m := range router.Members() {
		if m.State != "active" {
			return fmt.Errorf("fleet: shard %s is %s after the first probe", m.ID, m.State)
		}
	}

	in.client = http.DefaultTransport.(*http.Transport).Clone()
	in.rpc = &rpcTransport{base: in.client, rec: rec}
	client := dist.NewClientOptions(rsrv.URL, &http.Client{Transport: in.rpc, Timeout: dist.DefaultTimeout}, dist.Options{})
	p, err := dist.NewRemoteSpatialPlatform([]*dist.Client{client}, hw.Edge, []string{"ResNet"})
	if err != nil {
		return err
	}
	in.plat = p
	return nil
}

// close releases everything the instance holds and removes its temp dir.
func (in *instance) close() {
	if in.flight != nil {
		_ = in.flight.Close() // already finished on the measured path
	}
	if in.ckpt != nil {
		_ = in.ckpt.Close()
	}
	if in.client != nil {
		in.client.CloseIdleConnections()
	}
	for _, s := range in.servers {
		s.Close()
	}
	if in.dir != "" {
		_ = os.RemoveAll(in.dir)
	}
}

// seedResult is everything one co-search yields for the metrics.
type seedResult struct {
	seed     int64
	bmax     int
	setup    []float64 // seconds per set-up sample
	wall     float64   // host seconds in core.RunContext
	alloc    uint64    // bytes allocated during the co-search
	res      core.Result
	hv       float64
	failures []string

	rpcLatencies []time.Duration
	rpcAttempts  int
	rpcFailed    int // non-2xx responses and transport errors
	lostEvals    uint64

	// Traced runs only.
	prof    *perfprof.Profiler
	rec     *recorder
	iterGap []float64
	admit   int
	hits    uint64
	misses  uint64
	retries uint64
	replays uint64
}

// runSeed builds a fresh instance, runs one co-search on it and checks the
// outputs. rec selects a traced run.
func runSeed(sh shape, seed int64, workdir string, rec *recorder) (*seedResult, error) {
	runid.Set(fmt.Sprintf("perfbench-%s-%d", sh.name, seed))
	r := &seedResult{seed: seed, bmax: sh.bmax}
	for i := 1; i < setupSamples && rec == nil; i++ {
		start := time.Now()
		in, err := build(sh, seed, workdir, nil)
		if err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
		in.close()
	}
	start := time.Now()
	in, err := build(sh, seed, workdir, rec)
	if err != nil {
		return nil, err
	}
	r.setup = append(r.setup, time.Since(start).Seconds())
	defer in.close()

	var last time.Time
	if rec != nil {
		r.rec = rec
		in.opt.Progress = func(p core.Progress) {
			now := time.Now()
			r.iterGap = append(r.iterGap, now.Sub(last).Seconds())
			last = now
			r.admit += p.Admitted
		}
	}

	lost0 := telemetry.DistLostEvals().Value()
	retries0 := telemetry.DistRetries().Value()
	replays0 := telemetry.FleetReplays().Value()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	restore := func() {}
	if rec != nil {
		// Mirrored like the process default the untraced run keeps, so the
		// two differ only by the wrappers.
		r.prof = perfprof.NewMirrored()
		restore = perfprof.SetActive(r.prof)
	}
	begin := time.Now()
	last = begin
	r.res = core.RunContext(context.Background(), in.plat, in.opt)
	end := time.Now()
	restore()
	runtime.ReadMemStats(&m1)
	r.wall = end.Sub(begin).Seconds()
	r.alloc = m1.TotalAlloc - m0.TotalAlloc
	r.lostEvals = telemetry.DistLostEvals().Value() - lost0
	r.retries = telemetry.DistRetries().Value() - retries0
	r.replays = telemetry.FleetReplays().Value() - replays0
	if rec != nil {
		rec.add(span{ID: rootID, Name: "core.run"}, begin, end)
	}

	if err := in.flight.Finish(flightrec.Summary{}); err != nil {
		r.fail("flight record summary: %v", err)
	}
	if err := in.ckpt.Close(); err != nil {
		r.fail("checkpoint close: %v", err)
	}
	if in.rpc != nil {
		in.rpc.mu.Lock()
		r.rpcLatencies = in.rpc.latencies
		r.rpcAttempts = in.rpc.attempts
		r.rpcFailed = in.rpc.non2xx + in.rpc.transport
		in.rpc.mu.Unlock()
		if r.rpcFailed > 0 {
			r.fail("%d of %d RPC attempts failed (non-2xx or transport error)", r.rpcFailed, r.rpcAttempts)
		}
		if r.lostEvals != 0 {
			r.fail("%d remote evals lost", r.lostEvals)
		}
	}
	for _, c := range in.caches {
		st := c.Stats()
		r.hits += st.Hits
		r.misses += st.Misses
	}
	if rec != nil {
		if spent := rec.spent.Load(); spent != int64(r.res.Evals) {
			r.fail("Result.Evals = %d, wrapped searchers spent %d", r.res.Evals, spent)
		}
	}
	r.check(sh, in)
	r.hv = frontHV(r.res.Front, sh)
	return r, nil
}

func (r *seedResult) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf("seed %d: ", r.seed)+fmt.Sprintf(format, args...))
}

// check verifies the co-search's outputs.
func (r *seedResult) check(sh shape, in *instance) {
	res := r.res
	if res.CheckpointErr != nil {
		r.fail("checkpoint error: %v", res.CheckpointErr)
	}
	if want := sh.batch * sh.iters; len(res.All) != want {
		r.fail("evaluated %d candidates, want %d", len(res.All), want)
	}
	if len(res.Front) == 0 {
		r.fail("empty feasible front")
	}
	powerCap, areaCap := in.plat.PowerCapMW(), in.plat.AreaCapMM2()
	for i, c := range res.Front {
		if !c.Feasible {
			r.fail("front point %d is infeasible", i)
		}
		if powerCap > 0 && c.Metrics.PowerMW > powerCap {
			r.fail("front point %d: power %.4g mW over the %.4g mW cap", i, c.Metrics.PowerMW, powerCap)
		}
		if areaCap > 0 && c.Metrics.AreaMM2 > areaCap {
			r.fail("front point %d: area %.4g mm² over the %.4g mm² cap", i, c.Metrics.AreaMM2, areaCap)
		}
		for j, d := range res.Front {
			if i != j && pareto.Dominates(d.Objectives(false), c.Objectives(false)) {
				r.fail("front point %d is dominated by front point %d", i, j)
			}
		}
	}
	// Every searcher's history has one point per budget unit it spent, so
	// the last point's budget is what that searcher reports as spent.
	spent := 0
	for _, c := range res.All {
		if n := len(c.History); n > 0 {
			spent += c.History[n-1].Budget
		}
	}
	if spent != res.Evals {
		r.fail("Result.Evals = %d, searcher histories report %d spent", res.Evals, spent)
	}

	d, _, err := flightrec.Load(filepath.Join(in.dir, "run.flight.jsonl"))
	switch {
	case err != nil:
		r.fail("flight record: %v", err)
	case len(d.Iters) != sh.iters:
		r.fail("flight record has %d iterations, want %d", len(d.Iters), sh.iters)
	default:
		for i, it := range d.Iters {
			if it.Iter != i+1 {
				r.fail("flight record line %d is iteration %d", i+1, it.Iter)
				break
			}
		}
	}
	rs, err := checkpoint.Load(filepath.Join(in.dir, "run.ckpt"))
	switch {
	case err != nil:
		r.fail("checkpoint: %v", err)
	case rs.LastIter() != sh.iters:
		r.fail("checkpoint resumes at iteration %d, want %d", rs.LastIter(), sh.iters)
	}
}

// frontHV is the exact hypervolume of the front over (latency, power,
// area) under the workload's fixed log normalisation (see shape.hvFloor).
func frontHV(front []core.Candidate, sh shape) float64 {
	pts := make([][]float64, len(front))
	for i, c := range front {
		pts[i] = make([]float64, 3)
		for j, y := range c.Objectives(false) {
			pts[i][j] = math.Max(0, math.Log(y/sh.hvFloor[j])/math.Log(sh.hvRef[j]/sh.hvFloor[j]))
		}
	}
	return pareto.Hypervolume(pts, []float64{1, 1, 1})
}

// survivorFrac is the share of the budget spent on candidates that reached
// b_max.
func survivorFrac(res core.Result, bmax int) (full, total int) {
	for _, c := range res.All {
		n := len(c.History)
		if n == 0 {
			continue
		}
		b := c.History[n-1].Budget
		total += b
		if b >= bmax {
			full += b
		}
	}
	return full, total
}
