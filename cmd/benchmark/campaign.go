package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/trace"
)

// campaignWorkload runs whole campaigns in-process through runner.Run,
// one campaign per operation. An operation opens its point cache, runs
// the campaign and flushes the cache, as `interference -all` does.
type campaignWorkload struct {
	env     bench.Env
	exps    []core.Experiment
	workers int
	dir     string
	// warm ops replay the cache the set-up filled; otherwise every op
	// starts from an empty cache.
	warm bool
	// golden checks the set-up's results against pinned output; nil
	// when nothing is pinned at this seed.
	golden func([]runner.Result) error

	dirs   int
	setRes []runner.Result // the latest set-up's results
	want   []string        // renderings every op must reproduce
	cache  string          // warm: the filled cache; cold: the latest op's cache
	bad    error           // first wrong output
}

func newColdCampaign(cfg config) (workload, error) {
	return henriCampaign(cfg, false)
}

func newWarmReplay(cfg config) (workload, error) {
	return henriCampaign(cfg, true)
}

// unstable is the one experiment that fails at some seeds: a built-in
// fault scenario of faults-pingpong exhausts its retry budget and panics
// at seeds 237–239, 583–585 and 613–615 among the first thousand. The
// workloads leave it out so that no operation fails whatever the seed.
const unstable = "faults-pingpong"

// registry is every registered experiment except unstable.
func registry() []core.Experiment {
	var exps []core.Experiment
	for _, e := range core.Experiments() {
		if e.ID != unstable {
			exps = append(exps, e)
		}
	}
	return exps
}

// henriCampaign is the registry on the henri preset, 3 runs per
// configuration: the campaign `make verify` and CI run.
func henriCampaign(cfg config, warm bool) (*campaignWorkload, error) {
	env, err := core.Env("henri", cfg.seed, 3)
	if err != nil {
		return nil, err
	}
	w := &campaignWorkload{env: env, exps: registry(), workers: cfg.workers, dir: cfg.dir, warm: warm}
	if cfg.seed == 1 {
		dir := filepath.Join(cfg.root, "results")
		w.golden = func(res []runner.Result) error {
			var errs []error
			for _, r := range res {
				errs = append(errs, runner.VerifyGolden(dir, "henri", r))
			}
			return errors.Join(errs...)
		}
	}
	return w, nil
}

// fabric1k is the fabric interference grid scaled to a 1024-host
// fat-tree.
var fabric1k = core.Experiment{
	ID:    "fabric-1k",
	Title: "Inter-job slowdown of striped jobs sharing a fat-tree k=16",
	Run: func(env bench.Env) []*trace.Table {
		cells := bench.FabricInterference(env, "fattree-k16", []int{2, 3, 4})
		return []*trace.Table{bench.FabricInterferenceTable(
			"Fabric — inter-job interference on fat-tree k=16 (1024 hosts, striped placement)", cells)}
	},
}

// fabric1kGolden is fabric-1k's output at seed 1.
const fabric1kGolden = "cmd/benchmark/testdata/fabric-1k-seed1.txt"

func newFabric1k(cfg config) (workload, error) {
	env, err := core.Env("henri", cfg.seed, 1)
	if err != nil {
		return nil, err
	}
	w := &campaignWorkload{env: env, exps: []core.Experiment{fabric1k}, workers: cfg.workers, dir: cfg.dir}
	if cfg.seed == 1 {
		path := filepath.Join(cfg.root, fabric1kGolden)
		w.golden = func(res []runner.Result) error {
			want, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if d := trace.UnifiedDiff(path, "fabric-1k", string(want), res[0].Rendered); d != "" {
				return fmt.Errorf("fabric-1k drifted from %s:\n%s", path, d)
			}
			return nil
		}
	}
	return w, nil
}

func (w *campaignWorkload) newDir() string {
	w.dirs++
	return filepath.Join(w.dir, fmt.Sprintf("cache-%d", w.dirs))
}

// setUp runs one campaign on an empty cache: the first operation, which
// fills the world arena. A warm workload keeps that cache and replays it
// once.
func (w *campaignWorkload) setUp() error {
	if w.cache != "" {
		os.RemoveAll(w.cache)
	}
	w.cache = w.newDir()
	res, _, err := w.campaign(w.cache, nil, 0)
	if err != nil {
		return err
	}
	got := renderings(res)
	if w.want != nil {
		if err := sameOutput(w.want, got); err != nil {
			return fmt.Errorf("set-ups disagree: %w", err)
		}
	}
	w.setRes, w.want = res, got
	if w.warm {
		res, _, err = w.campaign(w.cache, nil, 0)
		if err != nil {
			return err
		}
		return sameOutput(w.want, renderings(res))
	}
	return nil
}

// campaign is one operation: open the cache in dir, run every
// experiment, flush.
func (w *campaignWorkload) campaign(dir string, tr *tracer, op int64) ([]runner.Result, *runner.CacheStats, error) {
	start := time.Now()
	cache, err := runner.OpenPointCache(dir)
	if err != nil {
		return nil, nil, err
	}
	var store runner.CacheStore = cache
	if tr != nil {
		tr.record("cache.open", op, op, start, time.Now(), "")
		store = tr.store(cache, op)
	}
	stats := &runner.CacheStats{}
	res := runner.Collect(runner.Run(w.env, w.exps, runner.Options{
		Workers: w.workers, Cache: store, CacheStats: stats,
	}))
	start = time.Now()
	err = cache.Flush()
	if tr != nil {
		tr.record("cache.flush", op, op, start, time.Now(), "")
	}
	if err != nil {
		return nil, nil, err
	}
	for _, r := range res {
		if r.Err != nil {
			return res, stats, r.Err
		}
	}
	return res, stats, nil
}

// step runs one campaign: the workload has one client.
func (w *campaignWorkload) step(tr *tracer) []sample {
	dir := w.cache
	if !w.warm {
		dir = w.newDir()
	}
	var op int64
	if tr != nil {
		op = tr.newID()
	}
	start := time.Now()
	res, stats, err := w.campaign(dir, tr, op)
	end := time.Now()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: operation failed:", err)
	} else {
		w.verify(res, stats)
	}
	if tr != nil {
		tr.recordID(op, "campaign", 0, op, start, end, "")
		w.count(tr, res, stats)
	}
	if !w.warm {
		os.RemoveAll(w.cache)
		w.cache = dir
	}
	return []sample{{start: start, end: end, failed: err != nil}}
}

// verify records the first operation whose output differs from the
// set-up's, or that executed points while replaying a warm cache.
func (w *campaignWorkload) verify(res []runner.Result, stats *runner.CacheStats) {
	if w.bad != nil {
		return
	}
	if err := sameOutput(w.want, renderings(res)); err != nil {
		w.bad = err
	} else if w.warm && stats.Misses != 0 {
		w.bad = fmt.Errorf("warm replay executed %d points", stats.Misses)
	}
}

// count adds an operation's runner accounting to the trace, and times
// re-rendering its tables through core.RenderTables.
func (w *campaignWorkload) count(tr *tracer, res []runner.Result, stats *runner.CacheStats) {
	if stats != nil {
		tr.add("runner.points", float64(stats.Points()))
		tr.add("runner.executed", float64(stats.Misses))
		tr.add("runner.memo_hits", float64(stats.MemoHits))
		tr.add("runner.cache_hits", float64(stats.Hits))
		tr.add("runner.flight_hits", float64(stats.FlightHits))
	}
	start := time.Now()
	for _, r := range res {
		if _, err := core.RenderTables("ascii", r.Tables); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: re-render:", err)
		}
	}
	tr.add("core.render_s", time.Since(start).Seconds())
}

// check verifies the set-up's output against the goldens pinned at this
// seed, and that a cold workload's final cache replays to the same bytes
// without executing a point.
func (w *campaignWorkload) check() error {
	if w.bad != nil {
		return w.bad
	}
	if w.golden != nil {
		if err := w.golden(w.setRes); err != nil {
			return err
		}
	}
	if w.warm {
		return nil
	}
	res, stats, err := w.campaign(w.cache, nil, 0)
	if err != nil {
		return fmt.Errorf("replaying the final cache: %w", err)
	}
	if stats.Misses != 0 {
		return fmt.Errorf("replaying the final cache executed %d points", stats.Misses)
	}
	return sameOutput(w.want, renderings(res))
}

func (w *campaignWorkload) close() { os.RemoveAll(w.dir) }

func renderings(res []runner.Result) []string {
	out := make([]string, len(res))
	for i, r := range res {
		out[i] = r.Rendered
	}
	return out
}

// sameOutput compares two campaigns' renderings experiment by
// experiment.
func sameOutput(want, got []string) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if d := trace.UnifiedDiff("want", "got", want[i], got[i]); d != "" {
			return fmt.Errorf("result %d differs:\n%s", i, d)
		}
	}
	return nil
}
