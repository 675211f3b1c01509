// Package runner is the concurrent campaign engine: it fans a list of
// experiments out over a bounded worker pool while keeping the output
// deterministic. Each experiment runs against an isolated environment
// (deep-copied spec, fresh meter, the same seed — see bench.Env.Isolated),
// so workers share no mutable state, and results are streamed back in
// the order the experiments were submitted regardless of completion
// order: the rendering of a campaign is byte-identical at every worker
// count.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/trace"
)

// Options configures one campaign.
type Options struct {
	// Workers bounds how many experiments run concurrently; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Format selects the rendering ("ascii" or "csv"); "" means ascii.
	Format string
	// Deadline bounds each experiment's wall-clock time; an experiment
	// that overruns is abandoned and reported as a failure. 0 disables
	// the deadline.
	Deadline time.Duration
	// Cache, when non-nil, persists computed sweep points
	// content-addressed by configuration (a PointCache, possibly behind
	// a Breaker): repeated campaigns replay unchanged points instead of
	// recomputing them.
	Cache CacheStore
	// CacheStats, when non-nil, receives the campaign's point-level
	// cache accounting (hits, misses, memo hits).
	CacheStats *CacheStats
	// Flight, when non-nil, deduplicates point computations against
	// other campaigns sharing the same Flight: a service passes one
	// flight to every campaign so concurrent clients racing on a cell
	// compute it exactly once.
	Flight *Flight[bench.PointRecord]
	// SharedPool, when non-nil, executes this campaign's points on a
	// service-wide worker-shard set instead of a private per-campaign
	// pool; the pool outlives the campaign and is never closed by Run.
	SharedPool *SharedPool
	// Ctx, when non-nil, cancels the campaign: once it expires, points
	// not yet started fail immediately (their experiments report the
	// cancellation) instead of executing. Points already executing run
	// to completion — the simulator cannot be interrupted mid-world.
	Ctx context.Context
	// DegradeAfter is the cache-error budget before the campaign
	// permanently switches to no-cache mode (see CacheStats.Degraded);
	// <= 0 means DefaultDegradeAfter.
	DegradeAfter int
}

// Result is the outcome of one experiment.
type Result struct {
	// Exp is the experiment that ran; Index its position in the
	// submitted slice (results arrive in ascending Index order).
	Exp   core.Experiment
	Index int
	// Tables are the experiment's result tables; Rendered is their
	// Options.Format rendering.
	Tables   []*trace.Table
	Rendered string
	// Err is non-nil when the experiment panicked or failed to render;
	// the other workers keep running.
	Err error
	// Cached marks a result replayed from the point cache: every point
	// record the experiment consumed was loaded from it, directly or
	// through the campaign memo or a flight leader that loaded it.
	Cached bool
	// Metrics is the per-experiment accounting.
	Metrics Metrics
}

// Metrics summarises one experiment's execution.
type Metrics struct {
	ID string
	// Wall is the host time the experiment took.
	Wall time.Duration
	// SimSeconds is the total simulated time across the experiment's
	// worlds; Worlds how many worlds it built.
	SimSeconds float64
	Worlds     int
	// Tables and Rows count the result set.
	Tables, Rows int
	// Faults aggregates the fault/recovery counters over every world
	// the experiment built; all zero for healthy runs.
	Faults counters.Faults
}

// Run executes exps over a bounded worker pool and returns a channel
// that yields one Result per experiment, in the order of exps. The
// channel is closed after the last result. Each experiment gets its own
// isolated copy of env, so env itself is never mutated.
func Run(env bench.Env, exps []core.Experiment, opts Options) <-chan Result {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	format := opts.Format
	if format == "" {
		format = "ascii"
	}

	// The scheduling unit is the sweep *point*, not the experiment: every
	// experiment compiles its parameter grids into points (see
	// bench.RunPointsAs) and submits them to this campaign-wide pool.
	// Workers beyond the experiment count are therefore not wasted — they
	// drain the pool directly — and a single huge experiment still
	// spreads across all -j workers. With a SharedPool the points go to
	// the service-wide shard set instead: campaign workers then only run
	// experiments (the shards and each experiment's own runUntil
	// participation execute the points), so finished campaigns never
	// park goroutines in a pool they do not own.
	pool := newPointPool()
	shared := opts.SharedPool != nil
	if shared {
		pool = opts.SharedPool.pool
	}
	sched := newPointScheduler(pool, opts.Cache, opts.Flight, opts.CacheStats, env)
	sched.ctx = opts.Ctx
	if opts.DegradeAfter > 0 {
		sched.degradeAfter = int64(opts.DegradeAfter)
	}
	env.Sched = sched

	// One buffered slot per experiment lets workers finish out of order
	// while the collector drains strictly in submission order.
	slots := make([]chan Result, len(exps))
	for i := range slots {
		slots[i] = make(chan Result, 1)
	}
	jobs := make(chan int)
	go func() {
		for i := range exps {
			jobs <- i
		}
		close(jobs)
	}()
	for w := 0; w < workers; w++ {
		go func() {
			for i := range jobs {
				slots[i] <- runOne(env, exps[i], i, format, opts.Deadline)
			}
			// Out of experiments: keep executing other experiments'
			// points until the campaign ends. On a shared pool the
			// worker exits instead — draining would park it until the
			// *service* shuts down.
			if !shared {
				pool.drain()
			}
		}()
	}
	out := make(chan Result)
	go func() {
		for _, slot := range slots {
			out <- <-slot
		}
		if !shared {
			pool.close()
		}
		close(out)
	}()
	return out
}

// Collect drains a Run channel into a slice (convenience for callers
// that do not need streaming).
func Collect(results <-chan Result) []Result {
	var out []Result
	for r := range results {
		out = append(out, r)
	}
	return out
}

// runOne runs a single experiment against an isolated environment,
// converting panics into errors and enforcing the wall-clock deadline,
// so a campaign degrades gracefully: one broken experiment yields one
// failed Result while every other experiment completes. It runs once:
// experiments are deterministic, so a rerun would fail the same way. A
// blown deadline abandons the experiment's goroutine (a simulated
// experiment cannot be interrupted; the goroutine finishes on its own
// and its result is discarded).
func runOne(env bench.Env, e core.Experiment, index int, format string, deadline time.Duration) Result {
	start := time.Now()
	done := make(chan Result, 1)
	go func() { done <- execute(env, e, index, format) }()
	if deadline <= 0 {
		return <-done
	}
	select {
	case res := <-done:
		return res
	case <-time.After(deadline):
		return Result{
			Exp: e, Index: index,
			Err:     fmt.Errorf("runner: experiment %s exceeded the %v deadline", e.ID, deadline),
			Metrics: Metrics{ID: e.ID, Wall: time.Since(start)},
		}
	}
}

// execute performs the experiment body and its accounting.
func execute(env bench.Env, e core.Experiment, index int, format string) Result {
	res := Result{Exp: e, Index: index}
	iso := env.Isolated()
	start := time.Now()
	func() {
		defer func() {
			if p := recover(); p != nil {
				res.Err = fmt.Errorf("runner: experiment %s panicked: %v", e.ID, p)
			}
		}()
		res.Tables = e.Run(iso)
		res.Rendered, res.Err = core.RenderTables(format, res.Tables)
	}()
	res.Metrics = Metrics{
		ID:         e.ID,
		Wall:       time.Since(start),
		SimSeconds: iso.Meter.SimSeconds(),
		Worlds:     iso.Meter.Worlds(),
		Tables:     len(res.Tables),
		Faults:     iso.Meter.Faults(),
	}
	for _, t := range res.Tables {
		res.Metrics.Rows += len(t.Rows)
	}
	res.Cached = iso.Meter.Replayed()
	return res
}

// Summary renders the per-experiment metrics of a campaign as a table:
// wall-clock, simulated time, world count, and result-set size, plus a
// totals row.
func Summary(results []Result) *trace.Table {
	t := trace.NewTable("Runner summary (per experiment)",
		"experiment", "status", "wall_ms", "sim_s", "worlds", "tables", "rows")
	var wall time.Duration
	var sim float64
	var worlds, tables, rows int
	for _, r := range results {
		status := "ok"
		switch {
		case r.Err != nil:
			status = "error"
		case r.Cached:
			status = "cached"
		}
		m := r.Metrics
		t.Add(m.ID, status, float64(m.Wall.Milliseconds()), m.SimSeconds, m.Worlds, m.Tables, m.Rows)
		wall += m.Wall
		sim += m.SimSeconds
		worlds += m.Worlds
		tables += m.Tables
		rows += m.Rows
	}
	t.Add("TOTAL", "-", float64(wall.Milliseconds()), sim, worlds, tables, rows)
	return t
}
