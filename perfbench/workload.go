package main

import (
	"fmt"
	"math"
)

// shape is one workload's co-search configuration. Workers and
// SearchWorkers are pinned here rather than derived from the host's CPU
// count: Workers enters sim_hours through simclock.AdvanceParallel, so a
// host-dependent value would change a quality metric with the machine.
type shape struct {
	name string
	// why records the reason the workload is in the benchmark; it is
	// repeated in BENCHMARK.json.
	why string

	batch, iters, bmax int
	workers            int
	searchWorkers      int

	// hvFloor and hvRef fix front_hv's normalisation and reference point
	// over (latency ms, power mW, area mm²). Fronts span orders of
	// magnitude, so each objective y maps to ln(y/floor)/ln(ref/floor):
	// floor maps to 0, ref to 1. front_hv is the exact hypervolume of the
	// mapped front against (1, 1, 1), the dominated share of the unit box.
	// The constants bracket every front seen on the workload with margin
	// (the power and area references are the platform caps where there is
	// one); they never move within or across runs, and a point beyond the
	// reference contributes nothing.
	hvFloor, hvRef [3]float64

	// seedSeconds is the host time one co-search of this shape takes on
	// the 2-CPU reference host. It converts --seconds into a fixed count
	// of consecutive seeds, so the quality metrics of a run depend only on
	// (--seed, --seconds), never on how fast the host happens to be.
	seedSeconds float64
}

// seedsFor is the number of consecutive seeds one run of --seconds covers.
func (s shape) seedsFor(seconds float64) int {
	n := int(math.Round(seconds / s.seedSeconds))
	if n < 1 {
		n = 1
	}
	return n
}

const (
	paperEdge   = "paper-edge"
	ascendDLEU  = "ascend-dleu"
	fleetServed = "fleet-served"
)

var shapes = []shape{
	{
		// Paper-scale UNICO on the open-source platform with the durable
		// sinks a long CLI run writes. Acquisition dominates here
		// (mobo.suggest is ~87% of host time), so it is the workload on
		// which GP, acquisition and sink changes show. Seeds differ in GP
		// work (12 to 40 hyperparameter refits per co-search), so
		// seedSeconds is the median over 76 seeds, not a slow seed's time:
		// a run covers as many seeds as its length allows.
		name:          paperEdge,
		why:           "paper-scale UNICO on the open-source edge platform with checkpoint and flight-record sinks; acquisition (GP + scalarization) dominates host time",
		batch:         30,
		iters:         12,
		bmax:          100,
		workers:       2,
		searchWorkers: 2,
		hvFloor:       [3]float64{1, 1, 0.01},
		hvRef:         [3]float64{1000, 2000, 20},
		seedSeconds:   3.2,
	},
	{
		// The opposite profile: job construction on the Ascend-like core
		// (NewJob -> buildWalk) takes ~95% of host time and allocates
		// hundreds of MB, while GP and acquisition take ~3%. The cold cache
		// only writes here, so the cache layer's write path is exercised.
		name:          ascendDLEU,
		why:           "Ascend-like core with depth-first schedule search and a cold evaluation cache; job construction dominates, GP and acquisition are ~3%",
		batch:         8,
		iters:         6,
		bmax:          40,
		workers:       2,
		searchWorkers: 2,
		hvFloor:       [3]float64{10, 10, 10},
		hvRef:         [3]float64{5000, 10000, 200},
		seedSeconds:   1.8,
	},
	{
		// The only workload that crosses dist and fleet: a remote master
		// drives ~1000 requests through a router over three loopback shards
		// whose caches read heavily (~54% hits). RPC latency and the serving
		// path show here.
		name:          fleetServed,
		why:           "remote master over one dist client, a fleet router and three cached in-process shards; ~1000 RPCs per co-search, read-heavy shard caches",
		batch:         16,
		iters:         16,
		bmax:          300,
		workers:       2,
		searchWorkers: 2,
		hvFloor:       [3]float64{10, 1, 0.01},
		hvRef:         [3]float64{10000, 2000, 20},
		seedSeconds:   4,
	},
}

func shapeByName(name string) (shape, error) {
	for _, s := range shapes {
		if s.name == name {
			return s, nil
		}
	}
	return shape{}, fmt.Errorf("unknown workload %q (want %s, %s or %s)", name, paperEdge, ascendDLEU, fleetServed)
}
