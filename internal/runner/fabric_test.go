package runner

import (
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestFabricGoldenLock verifies the fabric experiments against their
// committed goldens (same lock the core golden test provides for the
// paper experiments; kept here so a runner-level change that bends
// fabric output fails close to home). Uses runs=3, the golden
// convention.
func TestFabricGoldenLock(t *testing.T) {
	if testing.Short() {
		t.Skip("golden campaigns; skipped with -short")
	}
	env, err := core.Env("henri", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	var exps []core.Experiment
	for _, id := range []string{"fabric-pingpong", "fabric-interference", "fabric-dfly"} {
		e, ok := core.ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		exps = append(exps, e)
	}
	for _, r := range Collect(Run(env, exps, Options{Workers: 2})) {
		if err := VerifyGolden("../../results", "henri", r); err != nil {
			t.Error(err)
		}
	}
}

// TestFabricCampaignDeterministic is the multi-job determinism lock:
// the fabric-interference campaign (3 concurrent jobs on one shared
// fat-tree) must render byte-identically across worker counts and
// cache states (cold run populating a point cache, then a warm run
// replayed entirely from it).
func TestFabricCampaignDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("fabric campaign determinism sweep; skipped with -short")
	}
	e, ok := core.ByID("fabric-interference")
	if !ok {
		t.Fatal("fabric-interference not registered")
	}
	exps := []core.Experiment{e}
	base := Collect(Run(testEnv(t), exps, Options{Workers: 1}))[0]
	if base.Err != nil {
		t.Fatalf("baseline run failed: %v", base.Err)
	}
	cache, err := OpenPointCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		workers int
		cached  bool
	}{
		{"j8", 8, false},
		{"j1-cold-cache", 1, true}, // populates the cache
		{"j8-warm-cache", 8, true}, // fully replayed from it
		{"j1-warm-cache", 1, true},
	} {
		opts := Options{Workers: c.workers}
		var stats CacheStats
		if c.cached {
			opts.Cache = cache
			opts.CacheStats = &stats
		}
		r := Collect(Run(testEnv(t), exps, opts))[0]
		if r.Err != nil {
			t.Fatalf("%s: run failed: %v", c.name, r.Err)
		}
		if r.Rendered != base.Rendered {
			t.Errorf("%s diverged from the j1 baseline:\n%s", c.name,
				trace.UnifiedDiff("baseline", c.name, base.Rendered, r.Rendered))
		}
	}
}
