package telemetry

import "sync"

// SearchProgress is one per-iteration progress report from a co-search:
// the convergence signal of the paper's Fig. 7/10 curves, surfaced live.
type SearchProgress struct {
	// Iter is the MOBO iteration (1-based).
	Iter int
	// SimHours is the simulated search cost so far.
	SimHours float64
	// Hypervolume is the feasible front's hypervolume against the running
	// nadir reference (componentwise max of all feasible PPA points ×1.1).
	Hypervolume float64
	// UUL is the current Upper Update Limit of the high-fidelity rule
	// (+Inf until the first update).
	UUL float64
	// FrontSize is the feasible Pareto front size.
	FrontSize int
	// Evals is the cumulative mapping-evaluation budget spent.
	Evals int
	// Admitted is how many of this iteration's samples entered the
	// surrogate training set.
	Admitted int
}

// ProgressFunc consumes per-iteration progress reports.
type ProgressFunc func(SearchProgress)

var progressMu sync.RWMutex
var defaultProgress ProgressFunc

// SetDefaultProgress installs (or, with nil, removes) a process-wide
// progress sink invoked in addition to any per-run callback.
func SetDefaultProgress(fn ProgressFunc) {
	progressMu.Lock()
	defaultProgress = fn
	progressMu.Unlock()
}

// EmitProgress forwards a report to the process-wide sink, if one is set.
func EmitProgress(p SearchProgress) {
	progressMu.RLock()
	fn := defaultProgress
	progressMu.RUnlock()
	if fn != nil {
		fn(p)
	}
}
