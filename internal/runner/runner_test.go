package runner

import (
	"maps"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/trace"
)

// testEnv is a noise-free single-run henri environment: cheap enough to
// sweep the whole registry, deterministic down to the last byte.
func testEnv(t *testing.T) bench.Env {
	t.Helper()
	env, err := core.Env("henri", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestCampaignDeterministic runs the full registry twice with the same
// seed — once serially (-j 1) and once on eight workers — and demands
// identical ordering and byte-identical rendered tables: concurrency
// must never leak into the numbers, and a same-seed re-run must be a
// fixed point. The counters BenchmarkCampaignCounters reports must be
// exact too: points executed, memo hits, and fluid solves, skips, kernel
// events and process resumes, family by family.
func TestCampaignDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry campaign; skipped with -short")
	}
	exps := core.Experiments()
	run := func(workers int) ([]Result, CacheStats, bench.WorkByFamily) {
		var stats CacheStats
		before := bench.DoneByFamily()
		res := Collect(Run(testEnv(t), exps, Options{Workers: workers, CacheStats: &stats}))
		return res, stats, bench.DoneByFamily().Sub(before)
	}
	serial, serialStats, serialWork := run(1)
	parallel, parallelStats, parallelWork := run(8)
	if serialStats.Misses != parallelStats.Misses || serialStats.MemoHits != parallelStats.MemoHits {
		t.Errorf("-j 1 executed %d points with %d memo hits, -j 8 %d with %d",
			serialStats.Misses, serialStats.MemoHits, parallelStats.Misses, parallelStats.MemoHits)
	}
	// Contention's ping-pongs and compute loops run without processes;
	// ext's task runtimes still resume theirs.
	if w := serialWork["contention"]; w.Solves == 0 || w.Skips == 0 || w.Events == 0 || serialWork["ext"].Resumes == 0 ||
		!maps.Equal(serialWork, parallelWork) {
		t.Errorf("-j 1 did %+v, -j 8 %+v", serialWork, parallelWork)
	}
	if len(serial) != len(exps) || len(parallel) != len(exps) {
		t.Fatalf("got %d serial / %d parallel results, want %d", len(serial), len(parallel), len(exps))
	}
	for i, e := range exps {
		s, p := serial[i], parallel[i]
		if s.Exp.ID != e.ID || p.Exp.ID != e.ID {
			t.Fatalf("result %d is %q/%q, want %q (registry order)", i, s.Exp.ID, p.Exp.ID, e.ID)
		}
		if s.Err != nil || p.Err != nil {
			t.Fatalf("%s failed: serial %v, parallel %v", e.ID, s.Err, p.Err)
		}
		if s.Rendered == "" {
			t.Fatalf("%s rendered empty output", e.ID)
		}
		if s.Rendered != p.Rendered {
			t.Errorf("%s differs between -j 1 and -j 8:\n%s", e.ID,
				trace.UnifiedDiff("j1", "j8", s.Rendered, p.Rendered))
		}
		if s.Metrics.Worlds == 0 || s.Metrics.SimSeconds <= 0 {
			t.Errorf("%s metrics empty: %+v", e.ID, s.Metrics)
		}
		if s.Metrics.Rows == 0 || s.Metrics.Tables != len(s.Tables) {
			t.Errorf("%s result accounting wrong: %+v vs %d tables", e.ID, s.Metrics, len(s.Tables))
		}
	}
}

// TestOptimizedSolverCampaigns is the determinism lock on the
// incremental fluid solver at campaign scale: the two most
// solver-hostile campaigns — fig4 (the full interference sweep) and
// faults-crash-cg (node crashes cancel in-flight flows mid-solve) —
// run twice each (a same-seed re-run must be a fixed point, the
// equivalent of -count=2) at both -j 1 and -j 8, and every rendered
// byte must be identical across all four runs.
func TestOptimizedSolverCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-campaign determinism sweep; skipped with -short")
	}
	var exps []core.Experiment
	for _, id := range []string{"fig4", "faults-crash-cg"} {
		e, ok := core.ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		exps = append(exps, e)
	}
	type runKey struct {
		workers int
		iter    int
	}
	rendered := map[runKey][]string{}
	for _, workers := range []int{1, 8} {
		for iter := 0; iter < 2; iter++ {
			res := Collect(Run(testEnv(t), exps, Options{Workers: workers}))
			if len(res) != len(exps) {
				t.Fatalf("j%d iter %d: got %d results, want %d", workers, iter, len(res), len(exps))
			}
			for i, r := range res {
				if r.Err != nil {
					t.Fatalf("j%d iter %d: %s failed: %v", workers, iter, exps[i].ID, r.Err)
				}
				rendered[runKey{workers, iter}] = append(rendered[runKey{workers, iter}], r.Rendered)
			}
		}
	}
	base := rendered[runKey{1, 0}]
	for key, outs := range rendered {
		for i, out := range outs {
			if out != base[i] {
				t.Errorf("%s differs between j1 iter0 and j%d iter%d:\n%s", exps[i].ID, key.workers, key.iter,
					trace.UnifiedDiff("j1-iter0", "other", base[i], out))
			}
		}
	}
}

// TestRunnerIsolatesEnv checks that an experiment mutating its spec
// cannot affect the caller's environment or a sibling experiment.
func TestRunnerIsolatesEnv(t *testing.T) {
	env := testEnv(t)
	orig := env.Spec.NIC.NoiseFrac
	mutate := core.Experiment{ID: "mutate", Title: "t", Run: func(e bench.Env) []*trace.Table {
		e.Spec.NIC.NoiseFrac = orig + 42
		e.Spec.Freq.Turbo[0][0].Freq = 99
		tb := trace.NewTable("x", "noise")
		tb.Add(e.Spec.NIC.NoiseFrac)
		return []*trace.Table{tb}
	}}
	res := Collect(Run(env, []core.Experiment{mutate, mutate}, Options{Workers: 2}))
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if env.Spec.NIC.NoiseFrac != orig {
		t.Fatalf("caller spec mutated: noise %v, want %v", env.Spec.NIC.NoiseFrac, orig)
	}
	if env.Spec.Freq.Turbo[0][0].Freq == 99 {
		t.Fatal("caller turbo table mutated through shared slice")
	}
	if env.Meter != nil {
		t.Fatal("caller env acquired a meter")
	}
}

// TestWorldOutsideAPointFails: an experiment that builds a world
// outside a sweep point (one the point cache could not replay) fails
// with an error naming it; the rest of the campaign completes.
func TestWorldOutsideAPointFails(t *testing.T) {
	direct := core.Experiment{ID: "direct", Title: "t", Run: func(e bench.Env) []*trace.Table {
		bench.Interference(e, bench.LatencyConfig(), bench.ComputeConfig{})
		return okTable()
	}}
	ok := core.Experiment{ID: "ok", Title: "t", Run: func(bench.Env) []*trace.Table { return okTable() }}
	res := Collect(Run(testEnv(t), []core.Experiment{direct, ok}, Options{Workers: 2}))
	if err := res[0].Err; err == nil || !strings.Contains(err.Error(), "experiment direct") ||
		!strings.Contains(err.Error(), "outside a sweep point") {
		t.Fatalf("direct world not refused: %v", err)
	}
	if res[1].Err != nil {
		t.Fatalf("sibling damaged: %v", res[1].Err)
	}
}

// TestRunnerPanicIsolation: a panicking experiment is reported as an
// error in its slot; the rest of the campaign completes.
func TestRunnerPanicIsolation(t *testing.T) {
	boom := core.Experiment{ID: "boom", Title: "t", Run: func(bench.Env) []*trace.Table {
		panic("kaboom")
	}}
	ok := core.Experiment{ID: "ok", Title: "t", Run: func(bench.Env) []*trace.Table {
		tb := trace.NewTable("x", "v")
		tb.Add(1)
		return []*trace.Table{tb}
	}}
	res := Collect(Run(testEnv(t), []core.Experiment{boom, ok}, Options{Workers: 2}))
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "kaboom") {
		t.Fatalf("panic not captured: %v", res[0].Err)
	}
	if res[1].Err != nil || res[1].Rendered == "" {
		t.Fatalf("sibling experiment damaged: %+v", res[1])
	}
}

func TestSummary(t *testing.T) {
	ok := core.Experiment{ID: "ok", Title: "t", Run: func(bench.Env) []*trace.Table {
		tb := trace.NewTable("x", "v")
		tb.Add(1)
		tb.Add(2)
		return []*trace.Table{tb}
	}}
	res := Collect(Run(testEnv(t), []core.Experiment{ok, ok}, Options{}))
	sum := Summary(res)
	if len(sum.Rows) != 3 {
		t.Fatalf("summary has %d rows, want 2 experiments + TOTAL", len(sum.Rows))
	}
	last := sum.Rows[len(sum.Rows)-1]
	if last[0] != "TOTAL" {
		t.Fatalf("last summary row %v", last)
	}
	if last[len(last)-1] != "4" { // 2 experiments × 2 rows
		t.Fatalf("TOTAL rows = %s, want 4", last[len(last)-1])
	}
}

func TestGoldenRoundTrip(t *testing.T) {
	ok := core.Experiment{ID: "ok", Title: "t", Run: func(bench.Env) []*trace.Table {
		tb := trace.NewTable("x", "v")
		tb.Add(12345)
		return []*trace.Table{tb}
	}}
	dir := t.TempDir()
	res := Collect(Run(testEnv(t), []core.Experiment{ok}, Options{}))[0]

	if err := VerifyGolden(dir, "henri", res); err == nil {
		t.Fatal("verify passed with no golden file")
	} else if !strings.Contains(err.Error(), "-update") {
		t.Fatalf("missing-golden error does not point at -update: %v", err)
	}
	if err := UpdateGolden(dir, "henri", res); err != nil {
		t.Fatal(err)
	}
	if err := VerifyGolden(dir, "henri", res); err != nil {
		t.Fatalf("verify after update: %v", err)
	}
	// Corrupt the golden: verify must fail with a unified diff.
	stale := res
	stale.Rendered = strings.Replace(res.Rendered, "12345", "54321", 1)
	if err := UpdateGolden(dir, "henri", stale); err != nil {
		t.Fatal(err)
	}
	err := VerifyGolden(dir, "henri", res)
	if err == nil {
		t.Fatal("verify passed against corrupted golden")
	}
	if !strings.Contains(err.Error(), "@@") || !strings.Contains(err.Error(), "+12345") {
		t.Fatalf("error lacks unified diff: %v", err)
	}
}
