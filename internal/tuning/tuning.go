// Package tuning implements the paper's §8 future-work proposals as
// working extensions on top of the simulator:
//
//   - WorkerSweep / Autotune: "task-based runtime systems could select
//     (automatically) the optimal number of workers which reduces memory
//     contention and maximizes performances for the whole program
//     execution" — sweep worker counts for an iterative application and
//     pick the fastest whole-program configuration;
//   - the CommThrottle and NUMALocal runtime features it evaluates live
//     in internal/taskrt (Config.CommThrottle, Config.Scheduler).
//
// These go beyond what the paper measures; EXPERIMENTS.md marks the
// corresponding experiments as extensions.
package tuning

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/taskrt"
	"repro/internal/topology"
)

// Options configures a worker-count sweep.
type Options struct {
	// Spec is the machine model; Seed the simulation seed.
	Spec *topology.NodeSpec
	Seed int64
	// World builds the two-node world of one run at a seed. The sweep
	// builds no world itself: the bench drivers pass bench.Env.World,
	// which installs the environment's fault schedule and registers the
	// world with the point that builds it (see bench.ExecutePoint).
	World func(seed int64) (*machine.Cluster, *mpi.World)
	// App builds the iterative application to tune (a fresh value per
	// run; its Slice closures must not retain state across runs).
	App func() *taskrt.App
	// WorkerCounts lists the candidate counts; empty means
	// {1, 2, 4, ..., cores-2}.
	WorkerCounts []int
	// Scheduler and CommThrottle configure the runtime under test.
	Scheduler    taskrt.SchedulerPolicy
	CommThrottle int
}

// Point is one sweep measurement.
type Point struct {
	Workers int
	// IterSeconds is the mean whole-iteration time — the quantity the
	// autotuner minimises ("performances for the whole program
	// execution").
	IterSeconds float64
	// SendBandwidth and StallFraction diagnose *why* a configuration
	// wins: fewer workers → less contention → faster communication,
	// more workers → more parallel compute.
	SendBandwidth float64
	StallFraction float64
}

// Result is a sweep outcome.
type Result struct {
	Best   Point
	Series []Point
}

// DefaultCounts yields the default sweep axis — 1, 2, 4, 8, ... up to
// cores−2 — so callers that split the sweep into per-count work units
// (see bench.ExtTuner) enumerate exactly the counts WorkerSweep would.
func DefaultCounts(spec *topology.NodeSpec) []int {
	max := spec.Cores() - 2
	counts := []int{1, 2}
	for n := 4; n < max; n += 4 {
		counts = append(counts, n)
	}
	return append(counts, max)
}

// runOnce executes the application at one worker count and returns the
// measurement.
func runOnce(o Options, nworkers int) Point {
	spec := o.Spec
	c, w := o.World(o.Seed)
	commCore := spec.LastCoreOfNUMA(spec.NUMANodes() - 1)
	var workers []int
	for core := 1; core < spec.Cores() && len(workers) < nworkers; core++ {
		if core != commCore {
			workers = append(workers, core)
		}
	}
	var rts [2]*taskrt.Runtime
	for i := 0; i < 2; i++ {
		w.Rank(i).SetCommCore(commCore)
		rts[i] = taskrt.New(taskrt.Config{
			Node:         c.Nodes[i],
			Rank:         w.Rank(i),
			MainCore:     0,
			CommCore:     commCore,
			WorkerCores:  workers,
			Scheduler:    o.Scheduler,
			CommThrottle: o.CommThrottle,
		})
		rts[i].Start()
	}
	stats := o.App().Run(rts)
	return Point{
		Workers:       nworkers,
		IterSeconds:   stats.IterSeconds,
		SendBandwidth: stats.SendBandwidth,
		StallFraction: stats.StallFraction,
	}
}

// WorkerSweep measures the application at every candidate worker count.
func WorkerSweep(o Options) Result {
	if o.Spec == nil || o.App == nil || o.World == nil {
		panic("tuning: Options.Spec, Options.App and Options.World are required")
	}
	counts := o.WorkerCounts
	if len(counts) == 0 {
		counts = DefaultCounts(o.Spec)
	}
	var res Result
	for _, n := range counts {
		if n < 1 || n > o.Spec.Cores()-2 {
			panic(fmt.Sprintf("tuning: worker count %d out of range [1,%d]", n, o.Spec.Cores()-2))
		}
		pt := runOnce(o, n)
		res.Series = append(res.Series, pt)
		if res.Best.Workers == 0 || pt.IterSeconds < res.Best.IterSeconds {
			res.Best = pt
		}
	}
	return res
}

// Autotune is the §8 "select automatically the optimal number of
// workers" entry point: it sweeps and returns the winning worker count.
func Autotune(o Options) int {
	return WorkerSweep(o).Best.Workers
}
