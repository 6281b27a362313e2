// Command perfbench is the repository's end-to-end benchmark of the UNICO
// co-search. It drives the same entry points the CLI uses — core.RunContext
// over platform.NewSpatial, platform.NewAscend or
// dist.NewRemoteSpatialPlatform, with checkpoint and flight-record sinks —
// on three workloads, checks every co-search's outputs, and prints the
// end-to-end metrics. With -trace 1 it instead runs each seed untraced and
// traced, checks the two agree bit for bit, and prints the per-layer
// metrics and a rooted phase tree measured by wrapping the public
// interfaces those entry points accept.
//
// Run it through run.sh from the repository root, which builds it:
//
//	bash perfbench/run.sh --workload paper-edge --seed 1 --seconds 10 --trace 0
//
// Everything runs in one process with Workers = SearchWorkers = 2, a closed
// loop: the master waits for each rung before it suggests again. Every
// co-search builds a fresh platform, cache and fleet, so caches start
// empty. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"unico/internal/buildinfo"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-edge, ascend-dleu or fleet-served")
		seed    = flag.Int64("seed", 1, "first workload seed; a run covers consecutive seeds")
		seconds = flag.Float64("seconds", 10, "run length; sets the number of consecutive seeds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for run temp dirs and span files")
		rev     = flag.String("revision", "unknown", "VCS revision of the sources under test")
	)
	flag.Parse()
	sh, err := shapeByName(*name)
	if err != nil {
		fatal(err)
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, not %d", *trace))
	}
	runs := filepath.Join(*workdir, "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		fatal(err)
	}
	// A traced run co-searches every seed twice, untraced and traced, so
	// it covers half as many seeds and lasts about as long as an untraced
	// run of the same --seconds.
	k := sh.seedsFor(*seconds)
	if *trace == 1 {
		k = sh.seedsFor(*seconds / 2)
	}
	env := map[string]any{
		"go":         buildinfo.GoVersion(),
		"revision":   *rev,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workload":   sh.name,
		"seed":       *seed,
		"seeds":      k,
		"trace":      *trace,
	}
	fmt.Printf("env go=%s revision=%s num_cpu=%d gomaxprocs=%d workload=%s seed=%d seeds=%d trace=%d\n",
		env["go"], env["revision"], env["num_cpu"], env["gomaxprocs"], sh.name, *seed, k, *trace)

	var out result
	if *trace == 0 {
		out, err = endToEnd(sh, *seed, k, runs)
	} else {
		out, err = traced(sh, *seed, k, runs, filepath.Join(*workdir, "trace"), env)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// tally counts operations and failures. Every co-search is one operation
// and fails if any of its checks fails. On fleet-served every RPC attempt
// is one more operation, and each failed attempt and lost remote eval is
// one more failure.
type tally struct{ attempted, failed int }

func (t *tally) add(r *seedResult) {
	t.attempted += 1 + r.rpcAttempts
	t.failed += r.rpcFailed + int(r.lostEvals)
	if len(r.failures) > 0 {
		t.failed++
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
}

func endToEnd(sh shape, seed int64, k int, runs string) (result, error) {
	var (
		t                      tally
		setup, hv, hour, lat   []float64
		evals, wall, allocated float64
	)
	for i := 0; i < k; i++ {
		r, err := runSeed(sh, seed+int64(i), runs, nil)
		if err != nil {
			return result{}, err
		}
		t.add(r)
		setup = append(setup, r.setup...)
		evals += float64(r.res.Evals)
		wall += r.wall
		allocated += float64(r.alloc)
		hv = append(hv, r.hv)
		hour = append(hour, r.res.Hours)
		for _, d := range r.rpcLatencies {
			lat = append(lat, d.Seconds()*1e3)
		}
		fmt.Printf("seed %d: evals=%d wall=%.3fs evals_per_s=%.2f alloc=%.1fMB front=%d front_hv=%.6f sim_hours=%.4f\n",
			r.seed, r.res.Evals, r.wall, float64(r.res.Evals)/r.wall, float64(r.alloc)/1e6, len(r.res.Front), r.hv, r.res.Hours)
	}
	// Host time and memory are totals over the run's co-searches, which
	// weighs every budget unit alike. front_hv is the mean over the run's
	// seeds: it is exact for each seed but varies from seed to seed, and
	// the mean is the steadier estimate of a search's typical quality.
	m := map[string]metric{
		"setup_s":     {median(setup), "s"},
		"evals_per_s": {evals / wall, "1/s"},
		"alloc_mb":    {allocated / float64(k) / 1e6, "MB"},
		"front_hv":    {mean(hv), "1"},
	}
	for _, n := range []string{"setup_s", "evals_per_s", "alloc_mb", "front_hv"} {
		fmt.Printf("metric %-12s %.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	// sim_hours, rpc_p50_ms, rpc_p99_ms and failed_frac are printed but kept
	// out of the result line. sim_hours depends only on the workload's shape
	// (the successive-halving budgets are fixed), so it reads the same on
	// every run; the RPC figures exist only on fleet-served; failures travel
	// in the line's own attempted and failed fields.
	fmt.Printf("metric %-12s %.6g h\n", "sim_hours", median(hour))
	if len(lat) > 0 {
		p50, _ := quantile(lat, 0.50)
		p99, beyond := quantile(lat, 0.99)
		fmt.Printf("metric %-12s %.6g ms (n=%d)\n", "rpc_p50_ms", p50, len(lat))
		fmt.Printf("metric %-12s %.6g ms (n=%d, %d beyond)\n", "rpc_p99_ms", p99, len(lat), beyond)
	}
	fmt.Printf("metric %-12s %.6g (%d of %d operations)\n", "failed_frac", float64(t.failed)/float64(t.attempted), t.failed, t.attempted)
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// median returns the middle value (the mean of the two middle values for
// an even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quantile returns the nearest-rank q-quantile and how many samples lie
// beyond it.
func quantile(v []float64, q float64) (float64, int) {
	if len(v) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}
