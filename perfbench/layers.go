package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"unico/internal/core"
	"unico/internal/perfprof"
)

// treeTolerance bounds how far the sequential children of core.run may sum
// past its wall time, as a share of it. The children run one after another
// on the master goroutine, so only clock granularity can push their sum
// over the wall time; more means two children overlap or one is counted
// twice.
const treeTolerance = 0.01

// layerSums accumulates the traced co-searches of one run.
type layerSums struct {
	runs int

	wall, suggest, update, hv, rung float64
	suggestN, updateN, hvN, rungN   int
	gpFitAuto, gpExtend             int

	newJobN, closeN, advanceN, ckptN, flightN int
	newJob, close, advance, ckpt, flight      float64

	rpc            map[string]*busySum // by the name of the RPC's parent span
	router, shard  map[string]*busySum // by the parent group of the RPC they serve
	shardDurations []float64
	shed           int
	non2xx         int

	maestroN, maestroErr, camodelN, camodelErr, cacheN int
	maestroS, camodelS, cacheS                         float64
	hits, misses                                       uint64
	retries, replays                                   uint64

	iterGaps            []float64
	admitted, suggested int
	fullBudget, budget  int
}

type busySum struct {
	n int
	s float64
}

func (a *layerSums) add(r *seedResult) {
	a.runs++
	a.wall += r.wall
	phases := map[string]perfprof.PhaseStat{}
	for _, p := range r.prof.Report() {
		phases[p.Path] = p
	}
	take := func(path string, secs *float64, n *int) {
		*secs += phases[path].WallSeconds
		*n += int(phases[path].Count)
	}
	take("iteration/suggest", &a.suggest, &a.suggestN)
	take("iteration/update", &a.update, &a.updateN)
	take("iteration/hypervolume", &a.hv, &a.hvN)
	// A lone survivor runs to b_max in sh.full_budget right after the
	// last rung; both are successive-halving time.
	take("iteration/sh.rung", &a.rung, &a.rungN)
	take("iteration/sh.full_budget", &a.rung, &a.rungN)
	a.gpFitAuto += int(phases["gp.fit_auto"].Count)
	a.gpExtend += int(phases["gp.extend"].Count)

	rec := r.rec
	for _, x := range []struct {
		name string
		n    *int
		s    *float64
	}{
		{"mapsearch.new_job", &a.newJobN, &a.newJob},
		{"mapsearch.close", &a.closeN, &a.close},
		{"mapsearch.advance", &a.advanceN, &a.advance},
		{"checkpoint.write", &a.ckptN, &a.ckpt},
		{"flightrec.record", &a.flightN, &a.flight},
	} {
		n, s := rec.sum(x.name)
		*x.n += n
		*x.s += s
	}
	a.addServing(rec)

	a.maestroN += int(rec.maestro.calls.Load())
	a.maestroErr += int(rec.maestro.errs.Load())
	a.maestroS += rec.maestro.seconds()
	a.camodelN += int(rec.camodel.calls.Load())
	a.camodelErr += int(rec.camodel.errs.Load())
	a.camodelS += rec.camodel.seconds()
	a.cacheN += int(rec.cache.calls.Load())
	a.cacheS += rec.cache.seconds()
	a.hits += r.hits
	a.misses += r.misses
	a.retries += r.retries
	a.replays += r.replays
	a.non2xx += r.rpcFailed

	a.iterGaps = append(a.iterGaps, r.iterGap...)
	a.admitted += r.admit
	a.suggested += len(r.res.All)
	full, total := survivorFrac(r.res, r.bmax)
	a.fullBudget += full
	a.budget += total
}

// addServing groups the RPC, router and shard spans by the master-side span
// that issued the RPC (new_job, advance or close). Router spans name their
// RPC through the span header; a shard span is assigned to the latest-
// starting router span that contains it.
func (a *layerSums) addServing(rec *recorder) {
	if a.rpc == nil {
		a.rpc, a.router, a.shard = map[string]*busySum{}, map[string]*busySum{}, map[string]*busySum{}
	}
	rec.mu.Lock()
	spans := append([]span(nil), rec.spans...)
	rec.mu.Unlock()
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	addTo := func(m map[string]*busySum, group string, s span) {
		b := m[group]
		if b == nil {
			b = &busySum{}
			m[group] = b
		}
		b.n++
		b.s += s.seconds()
	}
	rpcGroup := func(rpcID int64) string { return byID[byID[rpcID].Parent].Name }
	var routers []span
	for _, s := range spans {
		switch s.Name {
		case "dist.rpc":
			addTo(a.rpc, rpcGroup(s.ID), s)
		case "fleet.router":
			addTo(a.router, rpcGroup(s.Parent), s)
			routers = append(routers, s)
			if s.Status == 429 || s.Status == 503 {
				a.shed++
			}
		}
	}
	sort.Slice(routers, func(i, j int) bool { return routers[i].Start < routers[j].Start })
	for _, s := range spans {
		if s.Name != "dist.shard" {
			continue
		}
		group := ""
		for _, r := range routers {
			if r.Start > s.Start {
				break
			}
			if r.End >= s.End {
				group = rpcGroup(r.Parent)
			}
		}
		if group == "" {
			continue // the router's set-up health probe, not co-search work
		}
		a.shardDurations = append(a.shardDurations, s.seconds())
		addTo(a.shard, group, s)
	}
}

// sequential is the sum of core.run's sequential children.
func (a *layerSums) sequential() float64 {
	return a.suggest + a.newJob + a.rung + a.close + a.update + a.hv + a.flight + a.ckpt
}

// tree builds the rooted phase tree summed over the traced co-searches.
func (a *layerSums) tree() *treeNode {
	node := func(name string, n int, total float64, busy bool, kids ...*treeNode) *treeNode {
		t := &treeNode{name: name, count: n, total: total, self: total, busy: busy}
		for _, k := range kids {
			if k == nil || (k.count == 0 && k.total == 0) {
				continue
			}
			t.kids = append(t.kids, k)
			// Busy children of a sequential phase ran in parallel inside
			// it; only same-kind children are subtracted.
			if k.busy == busy {
				t.self -= k.total
			}
		}
		return t
	}
	get := func(m map[string]*busySum, group string) (int, float64) {
		if b := m[group]; b != nil {
			return b.n, b.s
		}
		return 0, 0
	}
	engines := func() []*treeNode {
		maestro := node("maestro.eval", a.maestroN, a.maestroS, true)
		camodel := node("camodel.eval", a.camodelN, a.camodelS, true)
		if a.cacheN > 0 {
			return []*treeNode{node("evalcache.lookup", a.cacheN, a.cacheS, true, maestro, camodel)}
		}
		return []*treeNode{maestro, camodel}
	}
	serving := func(group string, withEngines bool) *treeNode {
		var eng []*treeNode
		if withEngines {
			eng = engines()
		}
		sn, ss := get(a.shard, group)
		rn, rs := get(a.router, group)
		cn, cs := get(a.rpc, group)
		shard := node("dist.shard", sn, ss, true, eng...)
		return node("dist.rpc", cn, cs, true, node("fleet.router", rn, rs, true, shard))
	}
	var advKids []*treeNode
	if len(a.rpc) > 0 {
		advKids = []*treeNode{serving("mapsearch.advance", true)}
	} else {
		advKids = engines()
	}
	root := node("core.run", a.runs, a.wall, false,
		node("mobo.suggest", a.suggestN, a.suggest, false),
		node("mapsearch.new_job", a.newJobN, a.newJob, false, serving("mapsearch.new_job", false)),
		node("sh.rung", a.rungN, a.rung, false, node("mapsearch.advance", a.advanceN, a.advance, true, advKids...)),
		node("mapsearch.close", a.closeN, a.close, false, serving("mapsearch.close", false)),
		node("mobo.update", a.updateN, a.update, false),
		node("pareto.hv", a.hvN, a.hv, false),
		node("flightrec.record", a.flightN, a.flight, false),
		node("checkpoint.write", a.ckptN, a.ckpt, false),
	)
	return root
}

// layerMetric is one per-layer figure. inResult marks the ones in the
// result line (BENCHMARK.json's per_layer list): every figure a layer
// yields on every workload, plus the counts of the layers that run on only
// some. A layer's time on a workload where it does not run would read 0 on
// every run, so those times are printed only where the layer runs.
type layerMetric struct {
	name     string
	value    float64
	unit     string
	inResult bool
	runs     bool
}

func frac(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// metrics derives the per-layer metrics, per co-search.
func (a *layerSums) metrics(overhead float64) []layerMetric {
	k := float64(a.runs)
	shardP99, _ := quantile(a.shardDurations, 0.99)
	engineInCache := 0.0
	if a.cacheN > 0 {
		engineInCache = a.maestroS + a.camodelS
	}
	fleet := len(a.rpc) > 0
	var rpcN int
	for _, b := range a.rpc {
		rpcN += b.n
	}
	var routerS, shardS float64
	for _, b := range a.router {
		routerS += b.s
	}
	for _, b := range a.shard {
		shardS += b.s
	}
	iterP50 := median(a.iterGaps)
	return []layerMetric{
		{"core.iter_p50_s", iterP50, "s", true, true},
		{"core.self_s", (a.wall - a.sequential()) / k, "s", true, true},
		{"mobo.suggest_s", a.suggest / k, "s", true, true},
		{"mobo.update_s", a.update / k, "s", true, true},
		{"gp.fit_auto_calls", float64(a.gpFitAuto) / k, "count", true, true},
		{"gp.extend_calls", float64(a.gpExtend) / k, "count", true, true},
		{"pareto.hv_s", a.hv / k, "s", true, true},
		{"mobo.admitted_frac", frac(float64(a.admitted), float64(a.suggested)), "fraction", true, true},
		{"sh.rung_s", a.rung / k, "s", true, true},
		{"sh.survivor_evals_frac", frac(float64(a.fullBudget), float64(a.budget)), "fraction", true, true},
		{"mapsearch.jobs", float64(a.newJobN) / k, "count", true, true},
		{"mapsearch.new_job_s", a.newJob / k, "s", true, true},
		{"mapsearch.advance_calls", float64(a.advanceN) / k, "count", true, true},
		{"mapsearch.advance_s", a.advance / k, "s", true, true},
		{"maestro.evals", float64(a.maestroN) / k, "count", true, a.maestroN > 0},
		{"maestro.eval_s", a.maestroS / k, "s", false, a.maestroN > 0},
		{"maestro.infeasible_frac", frac(float64(a.maestroErr), float64(a.maestroN)), "fraction", true, a.maestroN > 0},
		{"camodel.evals", float64(a.camodelN) / k, "count", true, a.camodelN > 0},
		{"camodel.eval_s", a.camodelS / k, "s", false, a.camodelN > 0},
		{"camodel.infeasible_frac", frac(float64(a.camodelErr), float64(a.camodelN)), "fraction", true, a.camodelN > 0},
		{"evalcache.lookups", float64(a.cacheN) / k, "count", true, a.cacheN > 0},
		{"evalcache.hit_rate", frac(float64(a.hits), float64(a.hits+a.misses)), "fraction", true, a.cacheN > 0},
		{"evalcache.lookup_s", (a.cacheS - engineInCache) / k, "s", false, a.cacheN > 0},
		{"checkpoint.writes", float64(a.ckptN) / k, "count", true, true},
		{"checkpoint.write_s", a.ckpt / k, "s", true, true},
		{"flightrec.record_s", a.flight / k, "s", true, true},
		{"dist.requests", float64(rpcN) / k, "count", true, fleet},
		{"dist.retries", float64(a.retries) / k, "count", true, fleet},
		{"dist.non2xx", float64(a.non2xx) / k, "count", true, fleet},
		{"dist.shard_s", shardS / k, "s", false, fleet},
		{"dist.shard_p99_ms", shardP99 * 1e3, "ms", false, fleet},
		{"fleet.router_self_s", (routerS - shardS) / k, "s", false, fleet},
		{"fleet.shed", float64(a.shed) / k, "count", true, fleet},
		{"fleet.replays", float64(a.replays) / k, "count", true, fleet},
		{"trace.overhead_frac", overhead, "fraction", true, true},
	}
}

// traced runs each seed untraced and traced, checks the two co-searches
// agree, and reports the per-layer metrics of the traced runs. Both
// co-searches of a seed count as operations in the result line.
func traced(sh shape, seed int64, k int, runs, traceDir string, env map[string]any) (result, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return result{}, err
	}
	var (
		t                            tally
		a                            layerSums
		uEvals, uWall, tEvals, tWall float64
		minSelf                      = 1.0
	)
	for i := 0; i < k; i++ {
		s := seed + int64(i)
		rec := newRecorder(fmt.Sprintf("perfbench-%s-%d", sh.name, s))
		// Alternate which of the pair runs first, so neither side always
		// pays for the process's first co-search.
		var u, tr *seedResult
		for j := 0; j < 2; j++ {
			var err error
			if (i+j)%2 == 0 {
				u, err = runSeed(sh, s, runs, nil)
			} else {
				tr, err = runSeed(sh, s, runs, rec)
			}
			if err != nil {
				return result{}, err
			}
		}
		same, err := sameResult(u.res, tr.res)
		if err != nil {
			return result{}, err
		}
		if !same {
			tr.fail("traced and untraced co-searches differ in Front, All, Evals or Hours")
		}
		one := layerSums{}
		one.add(tr)
		self := 1 - one.sequential()/tr.wall
		if self < -treeTolerance {
			tr.fail("sequential children sum past the co-search's %.4fs by %.2f%%", tr.wall, -100*self)
		}
		minSelf = min(minSelf, self)
		t.add(u)
		t.add(tr)
		a.add(tr)
		uEvals += float64(u.res.Evals)
		uWall += u.wall
		tEvals += float64(tr.res.Evals)
		tWall += tr.wall
		path := filepath.Join(traceDir, fmt.Sprintf("%s-%d.jsonl", sh.name, s))
		if err := rec.write(path, env); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("seed %d: untraced %.3fs, traced %.3fs, fidelity %s, spans %s\n",
			s, u.wall, tr.wall, map[bool]string{true: "ok", false: "FAILED"}[same], path)
	}
	overhead := 1 - (tEvals/tWall)/(uEvals/uWall)
	tree := a.tree()
	printTree(os.Stdout, tree, "")
	fmt.Printf("trace check: core.run self-time is %.2f%% of its wall time over all seeds, %.2f%% at the lowest seed; a seed fails below -%.0f%%\n",
		100*tree.self/tree.total, 100*minSelf, 100*treeTolerance)

	m := map[string]metric{}
	for _, l := range a.metrics(overhead) {
		if l.runs {
			fmt.Printf("layer %-24s %.6g %s\n", l.name, l.value, l.unit)
		}
		if l.inResult {
			m[l.name] = metric{l.value, l.unit}
		}
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// sameResult reports whether two co-searches produced bit-identical
// fronts, candidate lists, eval counts and simulated hours. gob keeps the
// exact bits of every float, infinities included.
func sameResult(a, b core.Result) (bool, error) {
	enc := func(r core.Result) ([]byte, error) {
		var buf bytes.Buffer
		err := gob.NewEncoder(&buf).Encode(struct {
			Front, All []core.Candidate
			Evals      int
			Hours      float64
		}{r.Front, r.All, r.Evals, r.Hours})
		return buf.Bytes(), err
	}
	x, err := enc(a)
	if err != nil {
		return false, err
	}
	y, err := enc(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(x, y), nil
}
