package main

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"unico/internal/core"
	"unico/internal/flightrec"
	"unico/internal/hw"
	"unico/internal/mapping"
	"unico/internal/mapsearch"
	"unico/internal/ppa"
	"unico/internal/runid"
	"unico/internal/workload"
)

// The wrappers below measure each layer from outside, through the public
// interfaces core.RunContext, the platforms and dist.NewServerWith accept.
// Each forwards every call unchanged, so a traced co-search makes the same
// decisions as an untraced one; the fidelity check compares the two.

// tracedPlatform times core.Platform.NewJob and wraps every job it builds.
// It keeps no reference to the jobs: holding finished searchers alive would
// grow the live heap, space out garbage collections and so measure a
// different program.
type tracedPlatform struct {
	core.Platform
	rec *recorder
}

func (p *tracedPlatform) NewJob(x []float64, seed int64) mapsearch.Searcher {
	var j mapsearch.Searcher
	_ = p.rec.child("mapsearch.new_job", func() error {
		j = &tracedJob{inner: p.Platform.NewJob(x, seed), rec: p.rec}
		return nil
	})
	return j
}

// parentKey carries the advance span's ID into the request context of the
// remote calls it makes, so RPC spans nest under it.
type parentKey struct{}

// tracedJob times one mapping search's budget installments. It always
// offers mapsearch.ContextAdvancer and Close: each delegates to the inner
// searcher's own method when it has one and otherwise does exactly what
// core would do with a searcher lacking it (plain Advance; no close). A
// wrapper that dropped Close would leave remote jobs alive on their shard
// and measure a different program.
type tracedJob struct {
	inner mapsearch.Searcher
	rec   *recorder
}

func (j *tracedJob) Advance(budget int) {
	j.timed(context.Background(), func(context.Context) { j.inner.Advance(budget) })
}

func (j *tracedJob) AdvanceContext(ctx context.Context, budget int) {
	j.timed(ctx, func(ctx context.Context) {
		if ca, ok := j.inner.(mapsearch.ContextAdvancer); ok {
			ca.AdvanceContext(ctx, budget)
			return
		}
		j.inner.Advance(budget)
	})
}

func (j *tracedJob) timed(ctx context.Context, advance func(context.Context)) {
	id := j.rec.newID()
	before := j.inner.Spent()
	start := time.Now()
	advance(context.WithValue(ctx, parentKey{}, id))
	j.rec.add(span{ID: id, Parent: rungID, Name: "mapsearch.advance"}, start, time.Now())
	j.rec.spent.Add(int64(j.inner.Spent() - before))
}

func (j *tracedJob) Close() error {
	c, ok := j.inner.(interface{ Close() error })
	if !ok {
		return nil
	}
	return j.rec.child("mapsearch.close", c.Close)
}

func (j *tracedJob) History() ppa.History      { return j.inner.History() }
func (j *tracedJob) RawHistory() ppa.History   { return j.inner.RawHistory() }
func (j *tracedJob) Spent() int                { return j.inner.Spent() }
func (j *tracedJob) Best() (ppa.Metrics, bool) { return j.inner.Best() }

// busy counts the calls into one layer and the time spent in them, summed
// over goroutines. Engine evaluations and cache lookups run ~10^5 times per
// co-search, too often for one span each, so those layers keep only these
// counters; they appear in the tree as busy time under sh.rung.
type busy struct {
	calls, errs, ns atomic.Int64
}

func (b *busy) observe(start time.Time, err error) {
	b.calls.Add(1)
	b.ns.Add(int64(time.Since(start)))
	if err != nil {
		b.errs.Add(1)
	}
}

func (b *busy) seconds() float64 { return float64(b.ns.Load()) / 1e9 }

// timedSpatial counts the evaluations of a spatial PPA engine. It wraps the
// bare engine (inside the cache) for the maestro counters, and the cache
// itself for the evalcache counters.
type timedSpatial struct {
	inner mapsearch.SpatialEngine
	b     *busy
}

func (e timedSpatial) Evaluate(c hw.Spatial, m mapping.Spatial, l workload.Layer) (ppa.Metrics, error) {
	start := time.Now()
	met, err := e.inner.Evaluate(c, m, l)
	e.b.observe(start, err)
	return met, err
}

func (e timedSpatial) Area(c hw.Spatial) float64 { return e.inner.Area(c) }
func (e timedSpatial) EvalCostSeconds() float64  { return e.inner.EvalCostSeconds() }

// timedAscend is timedSpatial for the Ascend-like engine.
type timedAscend struct {
	inner mapsearch.AscendEngine
	b     *busy
}

func (e timedAscend) Evaluate(c hw.Ascend, m mapping.Ascend, l workload.Layer) (ppa.Metrics, error) {
	start := time.Now()
	met, err := e.inner.Evaluate(c, m, l)
	e.b.observe(start, err)
	return met, err
}

func (e timedAscend) Area(c hw.Ascend) float64 { return e.inner.Area(c) }
func (e timedAscend) EvalCostSeconds() float64 { return e.inner.EvalCostSeconds() }

// tracedCheckpoint times the checkpoint sink's journal appends and
// snapshots.
type tracedCheckpoint struct {
	inner core.CheckpointSink
	rec   *recorder
}

func (s tracedCheckpoint) AppendIteration(r core.IterationRecord) error {
	return s.rec.child("checkpoint.write", func() error { return s.inner.AppendIteration(r) })
}

func (s tracedCheckpoint) WriteSnapshot(r core.SnapshotRecord) error {
	return s.rec.child("checkpoint.write", func() error { return s.inner.WriteSnapshot(r) })
}

// tracedFlight times the flight recorder's per-iteration appends.
type tracedFlight struct {
	inner flightrec.Sink
	rec   *recorder
}

func (s tracedFlight) RecordIteration(it flightrec.Iteration) {
	_ = s.rec.child("flightrec.record", func() error { s.inner.RecordIteration(it); return nil })
}

// spanHeader carries an RPC span's ID from the client to the router, which
// is in the same process; the router does not forward it to shards.
const spanHeader = "X-Perfbench-Span"

// rpcTransport is the dist client's transport. It observes every /v1/*
// attempt the client makes: latency from send until the client closes the
// response body (so decoding is included), status, and transport errors.
// With a recorder it also records one span per attempt. It is installed in
// untraced runs too, because rpc_p50_ms and rpc_p99_ms come from it.
type rpcTransport struct {
	base http.RoundTripper
	rec  *recorder // nil in untraced runs

	mu        sync.Mutex
	latencies []time.Duration
	attempts  int
	non2xx    int
	transport int // transport errors
}

func (t *rpcTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var id, parent int64
	if t.rec != nil {
		id = t.rec.newID()
		parent, _ = req.Context().Value(parentKey{}).(int64)
		if parent == 0 {
			parent = t.rec.master.Load()
		}
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	done := func(status int) {
		end := time.Now()
		t.mu.Lock()
		t.attempts++
		t.latencies = append(t.latencies, end.Sub(start))
		switch {
		case err != nil:
			t.transport++
		case status < 200 || status > 299:
			t.non2xx++
		}
		t.mu.Unlock()
		if t.rec != nil {
			t.rec.add(span{ID: id, Parent: parent, Name: "dist.rpc", Req: strconv.FormatInt(id, 10), Status: status}, start, end)
		}
	}
	if err != nil {
		done(0)
		return nil, err
	}
	resp.Body = &observedBody{ReadCloser: resp.Body, done: func() { done(resp.StatusCode) }}
	return resp, nil
}

// observedBody reports the end of an attempt when the client closes the
// response body.
type observedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *observedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// statusWriter captures the status a handler writes.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// tracedHandler records one span per request a router or shard serves.
// Router spans nest under the client's RPC span through spanHeader; shard
// spans carry the run ID the router forwards and hang under the router.
func tracedHandler(h http.Handler, rec *recorder, name string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := int64(routerID)
		req := ""
		if v := r.Header.Get(spanHeader); v != "" {
			parent, _ = strconv.ParseInt(v, 10, 64)
			req = v
		}
		id := rec.newID()
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, r)
		rec.add(span{ID: id, Parent: parent, Name: name, Run: r.Header.Get(runid.Header), Req: req, Status: sw.status}, start, time.Now())
	})
}
