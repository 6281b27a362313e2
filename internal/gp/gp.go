// Package gp implements Gaussian-process regression, the surrogate model of
// UNICO's multi-objective Bayesian optimization (paper Section 3.2).
//
// The regressor follows the textbook formulation (Rasmussen & Williams,
// Algorithm 2.1): targets are standardized, the kernel matrix is factored by
// Cholesky, and hyperparameters (a shared lengthscale, signal variance and
// noise) are selected by maximizing the log marginal likelihood over a small
// grid — robust and dependency-free, which is what a from-scratch surrogate
// wants.
//
// # Fast refits and incremental extends
//
// FitAuto shares one squared-distance matrix across every grid candidate
// (the O(n²·d) distance pass runs once, not once per candidate) and reuses
// two factor/alpha scratch pairs, so a refit allocates a constant number of
// buffers. FitAutoFrom warm-starts the grid search in the ±1 lengthscale
// neighborhood of a previous optimum — the cadence policy (when to warm-
// refit versus full-refit) lives in the caller (internal/mobo).
//
// Extend appends one observation in O(n²) via linalg.CholeskyExtend instead
// of refactorizing. Because the bordered extend is bit-identical to a
// from-scratch factorization at the same jitter (see internal/linalg), a GP
// grown by Extend equals one produced by FitWithParams on the full data
// with the same hyperparameters and pinned jitter, bit for bit — this is
// what keeps checkpoint/resume runs identical to uninterrupted ones while
// the optimizer extends surrogates incrementally. Params/Jitter expose the
// values a caller must persist to reproduce a fitted GP exactly.
//
// # Batched prediction
//
// The hot path is PredictBatch: the acquisition pool in internal/mobo
// scores its candidates in blocks of eight, building the block's K★ once
// and running one 8-wide forward solve (linalg.SolveLower8Into) instead of
// one triangular solve per candidate. Every per-candidate accumulation keeps
// Predict's order, so PredictBatch equals Predict bit for bit; the
// refinement chains, which score one point at a time, stay on Predict.
//
// # Concurrency
//
// A fitted GP is immutable under Predict and PredictBatch (scratch space
// comes from sync.Pools, not the receiver), so concurrent calls of either
// on one GP are safe and allocate nothing — the acquisition worker pool in
// internal/mobo relies on this. Fit/Extend must not race with them.
package gp

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"unico/internal/linalg"
	"unico/internal/perfprof"
	"unico/internal/telemetry"
)

// fitCount counts surrogate fits process-wide (one per FitAuto/FitAutoFrom
// call, not per grid point, so it tracks the number of refit decisions).
var fitCount = telemetry.GPFits()

// extendCount counts incremental one-observation extends, the refits the
// warm-start path avoided.
var extendCount = telemetry.GPExtends()

// Kernel is a positive-definite covariance function on R^d.
type Kernel interface {
	// Eval returns k(x, y).
	Eval(x, y []float64) float64
}

// RBF is the squared-exponential kernel
// k(x,y) = σ²·exp(-‖x-y‖² / (2ℓ²)).
type RBF struct {
	Lengthscale float64
	Variance    float64
}

// Eval returns k(x, y).
func (k RBF) Eval(x, y []float64) float64 {
	return k.Variance * math.Exp(-sqDist(x, y)/(2*k.Lengthscale*k.Lengthscale))
}

// Matern52 is the Matérn-5/2 kernel, the default surrogate kernel in most
// BO frameworks: rougher than RBF, a better fit for hardware cost surfaces
// with ceil-division kinks.
type Matern52 struct {
	Lengthscale float64
	Variance    float64
}

// Eval returns k(x, y).
func (k Matern52) Eval(x, y []float64) float64 {
	return matern52FromSq(sqDist(x, y), k.Lengthscale, k.Variance)
}

// matern52FromSq evaluates the Matérn-5/2 kernel from a squared distance.
// The expression mirrors Matern52.Eval operation for operation so values
// computed from a shared distance matrix are bit-identical to direct Eval
// calls — FitAuto's grid search and Extend's covariance column depend on
// that.
func matern52FromSq(d2, lengthscale, variance float64) float64 {
	r := math.Sqrt(d2) / lengthscale
	s := math.Sqrt(5) * r
	return variance * (1 + s + 5*r*r/3) * math.Exp(-s)
}

func sqDist(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("gp: dimension mismatch %d vs %d", len(x), len(y)))
	}
	sum := 0.0
	for i := range x {
		d := x[i] - y[i]
		sum += d * d
	}
	return sum
}

// Params are the hyperparameters FitAuto selects, exposed so callers can
// persist them (checkpoints) and warm-start later refits.
type Params struct {
	Lengthscale float64 `json:"lengthscale"`
	Variance    float64 `json:"variance"`
	Noise       float64 `json:"noise"`
}

// GP is a fitted Gaussian-process regressor.
type GP struct {
	kernel    Kernel
	params    Params
	hasParams bool
	noise     float64
	jitter    float64
	x         [][]float64
	rawY      []float64
	chol      *linalg.Matrix
	alpha     []float64
	meanY     float64
	stdY      float64
}

// ErrNoData reports a fit attempt with no training points.
var ErrNoData = errors.New("gp: no training data")

// Fit trains a GP on (x, y) with fixed kernel hyperparameters.
func Fit(x [][]float64, y []float64, kernel Kernel, noise float64) (*GP, error) {
	defer perfprof.Begin("gp.fit").End()
	if len(x) == 0 {
		return nil, ErrNoData
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("gp: %d inputs vs %d targets", len(x), len(y))
	}
	n := len(x)
	k := linalg.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := kernel.Eval(x[i], x[j])
			if i == j {
				v += noise
			}
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	chol, jitter, err := linalg.CholeskyWithJitter(k)
	if err != nil {
		return nil, fmt.Errorf("gp: %w", err)
	}
	g := &GP{
		kernel: kernel, noise: noise, jitter: jitter,
		x: x, chol: chol,
		rawY: append([]float64(nil), y...),
	}
	if m, ok := kernel.(Matern52); ok {
		g.params = Params{Lengthscale: m.Lengthscale, Variance: m.Variance, Noise: noise}
		g.hasParams = true
	}
	g.refreshTargets()
	return g, nil
}

// refreshTargets (re)standardizes rawY and recomputes alpha against the
// current factor.
func (g *GP) refreshTargets() {
	n := len(g.rawY)
	g.meanY, g.stdY = meanStd(g.rawY)
	ys := make([]float64, n)
	for i, v := range g.rawY {
		ys[i] = (v - g.meanY) / g.stdY
	}
	if cap(g.alpha) < n {
		g.alpha = make([]float64, n)
	}
	g.alpha = g.alpha[:n]
	linalg.CholeskySolveInto(g.chol, ys, g.alpha)
}

// gridLengthscales and gridNoises are FitAuto's hyperparameter grid.
var (
	gridLengthscales = []float64{0.08, 0.15, 0.3, 0.6, 1.2}
	gridNoises       = []float64{1e-4, 1e-2, 5e-2}
)

// FitAuto trains a GP selecting hyperparameters by log-marginal-likelihood
// grid search over lengthscales and noise levels, with Matérn-5/2 kernels of
// unit signal variance on standardized targets.
func FitAuto(x [][]float64, y []float64) (*GP, error) {
	return fitGrid(x, y, gridLengthscales)
}

// FitAutoFrom is FitAuto warm-started at a previous optimum: the grid
// search is restricted to the ±1 lengthscale neighborhood of prev (all
// noise levels are always searched — the noise grid is small). A nil prev,
// or one whose lengthscale is no longer on the grid, falls back to the
// full grid. The selection is deterministic either way.
func FitAutoFrom(x [][]float64, y []float64, prev *Params) (*GP, error) {
	if prev == nil {
		return fitGrid(x, y, gridLengthscales)
	}
	at := -1
	for i, ls := range gridLengthscales {
		if ls == prev.Lengthscale {
			at = i
			break
		}
	}
	if at < 0 {
		return fitGrid(x, y, gridLengthscales)
	}
	lo, hi := at-1, at+2
	if lo < 0 {
		lo = 0
	}
	if hi > len(gridLengthscales) {
		hi = len(gridLengthscales)
	}
	return fitGrid(x, y, gridLengthscales[lo:hi])
}

// FitWithParams trains a GP at exactly the given hyperparameters and
// diagonal jitter — no grid search, no jitter retry ladder. Checkpoint
// restores use it to rebuild a surrogate bit-identical to the one a live
// run held (whether that run produced it by grid search or grew it with
// Extend).
func FitWithParams(x [][]float64, y []float64, p Params, jitter float64) (*GP, error) {
	defer perfprof.Begin("gp.fit").End()
	if len(x) == 0 {
		return nil, ErrNoData
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("gp: %d inputs vs %d targets", len(x), len(y))
	}
	n := len(x)
	d2 := sqDistLower(x)
	k := linalg.New(n, n)
	buildMaternLower(k, d2, p.Lengthscale, p.Variance, p.Noise)
	chol := linalg.New(n, n)
	if err := linalg.CholeskyFixedInto(chol, k, jitter); err != nil {
		return nil, fmt.Errorf("gp: %w", err)
	}
	g := &GP{
		kernel: Matern52{Lengthscale: p.Lengthscale, Variance: p.Variance},
		params: p, hasParams: true,
		noise: p.Noise, jitter: jitter,
		x: x, chol: chol,
		rawY: append([]float64(nil), y...),
	}
	g.refreshTargets()
	return g, nil
}

// fitGrid runs the log-marginal-likelihood grid search over the given
// lengthscales (× all noise levels). One squared-distance matrix is shared
// by every candidate, the kernel matrix is rebuilt per lengthscale with
// only the diagonal varying per noise level, and two factor/alpha scratch
// pairs alternate so the winner's factor survives without refactorizing.
func fitGrid(x [][]float64, y []float64, lengthscales []float64) (*GP, error) {
	defer perfprof.Begin("gp.fit_auto").End()
	if len(x) == 0 {
		return nil, ErrNoData
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("gp: %d inputs vs %d targets", len(x), len(y))
	}
	fitCount.Inc()
	n := len(x)
	mean, std := meanStd(y)
	ys := make([]float64, n)
	for i, v := range y {
		ys[i] = (v - mean) / std
	}

	d2 := sqDistLower(x)
	k := linalg.New(n, n)
	cand, spare := linalg.New(n, n), linalg.New(n, n)
	candAlpha, spareAlpha := make([]float64, n), make([]float64, n)
	w := make([]float64, n)

	var (
		found      bool
		bestParams Params
		bestJitter float64
		bestLML    = math.Inf(-1)
	)
	for _, ls := range lengthscales {
		buildMaternLower(k, d2, ls, 1, 0)
		for _, nz := range gridNoises {
			for i := 0; i < n; i++ {
				k.Data[i*n+i] = 1 + nz
			}
			jitter, err := linalg.CholeskyInto(cand, k)
			if err != nil {
				continue
			}
			linalg.CholeskySolveInto(cand, ys, candAlpha)
			lml := lmlFromChol(cand, candAlpha, w)
			if lml > bestLML {
				found = true
				bestParams = Params{Lengthscale: ls, Variance: 1, Noise: nz}
				bestJitter = jitter
				bestLML = lml
				cand, spare = spare, cand
				candAlpha, spareAlpha = spareAlpha, candAlpha
			}
		}
	}
	if !found {
		return nil, fmt.Errorf("gp: all hyperparameter candidates failed to factor")
	}
	g := &GP{
		kernel: Matern52{Lengthscale: bestParams.Lengthscale, Variance: bestParams.Variance},
		params: bestParams, hasParams: true,
		noise: bestParams.Noise, jitter: bestJitter,
		x: x, chol: spare, alpha: spareAlpha,
		rawY:  append([]float64(nil), y...),
		meanY: mean, stdY: std,
	}
	return g, nil
}

// sqDistLower fills the lower triangle of the pairwise squared-distance
// matrix.
func sqDistLower(x [][]float64) *linalg.Matrix {
	n := len(x)
	d2 := linalg.New(n, n)
	for i := 0; i < n; i++ {
		row := d2.Data[i*n : i*n+n]
		for j := 0; j < i; j++ {
			row[j] = sqDist(x[i], x[j])
		}
	}
	return d2
}

// buildMaternLower writes the lower triangle of the Matérn-5/2 kernel
// matrix (plus diagonal noise) from a squared-distance matrix.
func buildMaternLower(dst, d2 *linalg.Matrix, lengthscale, variance, noise float64) {
	n := d2.Rows
	for i := 0; i < n; i++ {
		src := d2.Data[i*n : i*n+n]
		row := dst.Data[i*n : i*n+n]
		for j := 0; j < i; j++ {
			row[j] = matern52FromSq(src[j], lengthscale, variance)
		}
		row[i] = variance + noise
	}
}

// Extend incorporates one new observation in O(n²): the factor grows by
// the bordered scheme (linalg.CholeskyExtend) at the pinned jitter, targets
// are re-standardized and alpha is recomputed. Hyperparameters are not
// re-selected — the caller decides when drift warrants a refit (see
// LogMarginalLikelihood). The result is bit-identical to FitWithParams on
// the extended data at the same hyperparameters and jitter. On error the
// receiver is unchanged and the caller should fall back to a full refit.
func (g *GP) Extend(xNew []float64, yNew float64) error {
	defer perfprof.Begin("gp.extend").End()
	n := len(g.x)
	k := make([]float64, n)
	for i := range g.x {
		k[i] = g.kernel.Eval(g.x[i], xNew)
	}
	d := g.kernel.Eval(xNew, xNew) + g.noise
	chol, err := linalg.CholeskyExtend(g.chol, k, d, g.jitter)
	if err != nil {
		return fmt.Errorf("gp: %w", err)
	}
	extendCount.Inc()
	g.chol = chol
	g.x = append(g.x[:n:n], xNew)
	g.rawY = append(g.rawY, yNew)
	g.refreshTargets()
	return nil
}

// Params reports the hyperparameters the GP was fitted with, when it was
// produced by the Matérn grid (FitAuto, FitAutoFrom, FitWithParams, or Fit
// with a Matern52 kernel).
func (g *GP) Params() (Params, bool) { return g.params, g.hasParams }

// Jitter reports the diagonal jitter baked into the current factor.
// Persist it alongside Params to rebuild the GP exactly via FitWithParams.
func (g *GP) Jitter() float64 { return g.jitter }

// LogMarginalLikelihood returns log p(y|X) of the standardized targets,
// using the identity log p = -½·yᵀα - Σᵢ log Lᵢᵢ - n/2·log 2π with
// y reconstructed as K·α = L·(Lᵀ·α).
func (g *GP) LogMarginalLikelihood() float64 {
	w := make([]float64, len(g.x))
	return lmlFromChol(g.chol, g.alpha, w)
}

// lmlFromChol computes the log marginal likelihood from a factor and its
// alpha, using w (length n) as scratch for Lᵀ·α.
func lmlFromChol(chol *linalg.Matrix, alpha, w []float64) float64 {
	n := chol.Rows
	for k := 0; k < n; k++ {
		sum := 0.0
		for j := k; j < n; j++ {
			sum += chol.At(j, k) * alpha[j]
		}
		w[k] = sum
	}
	quad := 0.0 // yᵀα = (L·w)ᵀα = wᵀ(Lᵀα) = wᵀw
	for _, v := range w {
		quad += v * v
	}
	return -0.5*quad - 0.5*linalg.LogDetFromChol(chol) - 0.5*float64(n)*math.Log(2*math.Pi)
}

// predictScratch is the per-call working set of Predict, pooled so the
// hot path allocates nothing and concurrent Predict calls never share
// buffers.
type predictScratch struct {
	ks, v []float64
}

var predictPool = sync.Pool{New: func() any { return new(predictScratch) }}

// Predict returns the posterior mean and variance at x (on the original
// target scale). It is safe to call concurrently on a fitted GP, allocates
// nothing, and deliberately carries no perfprof span: the refinement chains
// call it thousands of times per MOBO iteration, where a per-call span
// would serialize workers on the profiler mutex. The mobo.acq_* spans
// account for this time instead.
func (g *GP) Predict(x []float64) (mean, variance float64) {
	n := len(g.x)
	sc := predictPool.Get().(*predictScratch)
	if cap(sc.ks) < n {
		sc.ks = make([]float64, n)
		sc.v = make([]float64, n)
	}
	ks, v := sc.ks[:n], sc.v[:n]
	for i := range g.x {
		ks[i] = g.kernel.Eval(g.x[i], x)
	}
	mu := linalg.Dot(ks, g.alpha)
	linalg.SolveLowerInto(g.chol, ks, v)
	varS := g.kernel.Eval(x, x) + g.noise - linalg.Dot(v, v)
	if varS < 1e-12 {
		varS = 1e-12
	}
	predictPool.Put(sc)
	return mu*g.stdY + g.meanY, varS * g.stdY * g.stdY
}

// batchScratch is PredictBatch's pooled K★ block: n rows of predictBlock
// interleaved candidate columns, solved in place.
type batchScratch struct {
	kb []float64
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// predictBlock is the number of candidates PredictBatch scores per K★
// block — the width of linalg.SolveLower8Into.
const predictBlock = 8

// PredictBatch writes the posterior mean and variance at each xs[c] into
// mean[c] and variance[c] (both must have len(xs) entries). It is the
// acquisition pool's hot path: per block of eight candidates it builds K★
// once, interleaved as kb[i*8+c], accumulates each candidate's mean from
// it, and runs one 8-wide forward solve (linalg.SolveLower8Into), so L
// streams once per block instead of once per candidate. A short last block
// is padded with zero columns, whose results are discarded.
//
// Every per-candidate accumulation runs in Predict's order, one product at
// a time, so each output equals Predict(xs[c]) bit for bit. Like Predict it
// is safe to call concurrently on a fitted GP, allocates nothing (the block
// comes from a sync.Pool) and carries no perfprof span.
func (g *GP) PredictBatch(xs [][]float64, mean, variance []float64) {
	if len(mean) != len(xs) || len(variance) != len(xs) {
		panic(fmt.Sprintf("gp: PredictBatch got %d points, %d means, %d variances", len(xs), len(mean), len(variance)))
	}
	n := len(g.x)
	sc := batchPool.Get().(*batchScratch)
	if cap(sc.kb) < predictBlock*n {
		sc.kb = make([]float64, predictBlock*n)
	}
	kb := sc.kb[:predictBlock*n]
	matern, isMatern := g.kernel.(Matern52)
	for lo := 0; lo < len(xs); lo += predictBlock {
		blk := xs[lo:min(lo+predictBlock, len(xs))]
		for c := len(blk); c < predictBlock; c++ {
			for i := 0; i < n; i++ {
				kb[i*predictBlock+c] = 0
			}
		}
		for c, x := range blk {
			mu := 0.0
			for i, xi := range g.x {
				var k float64
				if isMatern {
					k = matern52FromSq(sqDist(xi, x), matern.Lengthscale, matern.Variance)
				} else {
					k = g.kernel.Eval(xi, x)
				}
				kb[i*predictBlock+c] = k
				mu += k * g.alpha[i]
			}
			mean[lo+c] = mu*g.stdY + g.meanY
		}
		linalg.SolveLower8Into(g.chol, kb, kb)
		var vv [predictBlock]float64
		for i := 0; i < n; i++ {
			v := (*[predictBlock]float64)(kb[i*predictBlock:])
			for c := range vv {
				vv[c] += v[c] * v[c]
			}
		}
		for c, x := range blk {
			varS := g.kernel.Eval(x, x) + g.noise - vv[c]
			if varS < 1e-12 {
				varS = 1e-12
			}
			variance[lo+c] = varS * g.stdY * g.stdY
		}
	}
	batchPool.Put(sc)
}

// N returns the number of training points.
func (g *GP) N() int { return len(g.x) }

// meanStd returns the mean and (guarded) standard deviation of v.
func meanStd(v []float64) (mean, std float64) {
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	for _, x := range v {
		d := x - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(v)))
	if std < 1e-12 {
		std = 1
	}
	return mean, std
}
