package server

import (
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"testing"

	"repro/internal/chaos"
)

// chaosSeed returns the soak seed: CHAOS_SEED from the environment (the
// CI matrix sweeps it), default 1. Every failure message carries the
// seed so a red run reproduces with one env var.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q is not an integer", v)
		}
		return n
	}
	return 1
}

// soakStorm hammers the daemon with the overlapping spec set from the
// load test, concurrently, and returns each submission's comparable
// view (indexed like the outcomes slice; spec index in the second
// return).
func soakStorm(t *testing.T, url string, specs []CampaignSpec, clients, perClient int) ([]string, []int) {
	t.Helper()
	total := clients * perClient
	views := make([]string, total)
	specIdx := make([]int, total)
	codes := make([]int, total)
	bodies := make([]string, total)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				i := c*perClient + k
				idx := (c + k) % len(specs)
				specIdx[i] = idx
				code, body, cr := postSpec(t, url, specs[idx])
				codes[i], bodies[i] = code, string(body)
				if cr != nil {
					views[i] = comparableView(cr)
				}
			}
		}()
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("storm submission %d (spec %d): %d: %s", i, specIdx[i], code, bodies[i])
		}
	}
	return views, specIdx
}

// TestServerChaosSoak is the chaos battery: the load-test storm runs
// against daemons whose filesystem is actively failing, and the test
// demands the exactly-once and byte-identity contracts still hold.
//
// Scenario A (durability chaos): torn writes, EIO and ENOSPC on the
// point cache's temp files, so pack and index flushes fail. Results
// must be byte-identical to a fault-free baseline, the cache
// exactly-once bound must hold with equality (a failed flush keeps its
// records pending and served), losses must surface as durability
// warnings, and a fresh daemon on a healthy disk must serve every
// resubmitted spec byte-identically from what the flushes left behind.
//
// Scenario B (full chaos): EIO on pack page-ins from a pre-seeded cache
// (degrading campaigns to no-cache mode) and ENOSPC on cache temp
// files. Results must still be byte-identical; every execution beyond
// the unseeded points must be accounted for by a failure path.
//
// Scenario C (dead cache): every pack page-in and every cache write
// fails. The campaign must degrade within its error budget and still
// serve the baseline bytes.
func TestServerChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak; skipped with -short")
	}
	seed := chaosSeed(t)
	clients := loadEnvInt("CHAOS_SOAK_CLIENTS", 4)
	perClient := loadEnvInt("CHAOS_SOAK_PER_CLIENT", 6)
	// Wider than the load-test set: distinct seeds and run counts make
	// distinct campaigns (and cache traffic) while still overlapping.
	specs := []CampaignSpec{
		{Experiments: []string{"fig3"}, Seed: 1, Runs: 1},
		{Experiments: []string{"ext-sched"}, Seed: 1, Runs: 1},
		{Experiments: []string{"fig3", "ext-sched"}, Seed: 1, Runs: 1},
		{Experiments: []string{"fig3"}, Seed: 2, Runs: 1},
		{Experiments: []string{"ext-sched"}, Seed: 2, Runs: 1},
		{Experiments: []string{"fig3", "ext-sched"}, Seed: 3, Runs: 1},
		{Experiments: []string{"fig3"}, Seed: 3, Runs: 2},
		{Experiments: []string{"ext-sched"}, Seed: 4, Runs: 1},
	}

	// The storm's spec selection is a deterministic function of the
	// sizing, and at small CHAOS_SOAK_* values it does not reach every
	// spec — so the exactly-once union must only count the specs the
	// storm will actually submit. Uncovered specs are still baselined
	// afterwards (the dead-cache sub-test needs spec 2's bytes) but their
	// points stay out of the union.
	covered := make([]bool, len(specs))
	for c := 0; c < clients; c++ {
		for k := 0; k < perClient; k++ {
			covered[(c+k)%len(specs)] = true
		}
	}

	// Fault-free serial baseline: the expected bytes per spec and the
	// union of distinct points across the covered specs.
	base, baseURL := newLoadServer(t, clients*perClient)
	want := make([]string, len(specs))
	baseline := func(i int) {
		code, body, cr := postSpec(t, baseURL, specs[i])
		if code != http.StatusOK || cr.Errors != 0 {
			t.Fatalf("baseline spec %d: %d (%d errors): %s", i, code, cr.Errors, body)
		}
		want[i] = comparableView(cr)
	}
	for i := range specs {
		if covered[i] {
			baseline(i)
		}
	}
	union := base.Metrics().Cache.Misses
	if union == 0 {
		t.Fatal("baseline computed nothing")
	}
	for i := range specs {
		if !covered[i] {
			baseline(i)
		}
	}

	t.Run("durability", func(t *testing.T) {
		spec := "torn:p=0.2,match=.tmp-;eio-write:p=0.2,match=.tmp-;enospc:p=0.2,match=.tmp-"
		inj := chaos.NewInjector(seed, mustChaosSpec(t, spec))
		cacheDir := filepath.Join(t.TempDir(), "cache")
		s, ts := newTestServer(t, Config{
			CacheDir:    cacheDir,
			Shards:      4,
			QueueDepth:  clients*perClient + 8,
			MaxInflight: 4,
			FS:          chaos.Flaky(chaos.OS(), inj),
		})
		views, specIdx := soakStorm(t, ts.URL, specs, clients, perClient)
		for i, v := range views {
			if v != want[specIdx[i]] {
				t.Fatalf("seed %d: submission %d (spec %d) drifted under durability chaos:\n got %s\nwant %s",
					seed, i, specIdx[i], v, want[specIdx[i]])
			}
		}
		m := s.Metrics()
		// A failed flush keeps its records pending, so the cache still
		// serves every computed point: exactly-once must hold with
		// equality, exactly like the fault-free storm.
		if m.Cache.Misses != union {
			t.Fatalf("seed %d: durability chaos executed %d points, want exactly %d (stats %+v)",
				seed, m.Cache.Misses, union, m.Cache)
		}
		if inj.Injected() > 0 && m.Robustness.DurabilityWarnings == 0 {
			t.Fatalf("seed %d: %d faults injected but zero durability warnings", seed, inj.Injected())
		}
		t.Logf("seed %d: durability chaos: %d faults injected (%d torn, %d EIO, %d ENOSPC), %d durability warnings",
			seed, inj.Injected(), inj.InjectedKind(chaos.TornWrite), inj.InjectedKind(chaos.WriteErr),
			inj.InjectedKind(chaos.NoSpace), m.Robustness.DurabilityWarnings)

		// Close's final flush still runs on the flaky filesystem, so an
		// injected fault there is a durability loss like any other, not
		// a failure: the records it could not land stay pending, and the
		// next daemon executes them again.
		closeErr := s.Close()
		if closeErr != nil && !errors.Is(closeErr, syscall.ENOSPC) && !errors.Is(closeErr, syscall.EIO) {
			t.Fatalf("seed %d: closing chaos daemon: %v", seed, closeErr)
		}
		lost := int64(s.cache.DiskStats().PendingEntries)
		if closeErr == nil && lost != 0 {
			t.Fatalf("seed %d: Close returned nil with %d records pending", seed, lost)
		}
		// The clients resubmit every storm spec to a fresh daemon on a
		// healthy disk over the same cache: torn and failed temp files
		// must never surface as served bytes.
		fresh, freshTS := newTestServer(t, Config{CacheDir: cacheDir, Shards: 4})
		for i := range specs {
			if !covered[i] {
				continue
			}
			code, body, cr := postSpec(t, freshTS.URL, specs[i])
			if code != http.StatusOK {
				t.Fatalf("seed %d: resubmitting spec %d: %d: %s", seed, i, code, body)
			}
			if v := comparableView(cr); v != want[i] {
				t.Fatalf("seed %d: resubmitted spec %d drifted after durability chaos:\n got %s\nwant %s",
					seed, i, v, want[i])
			}
		}
		// Every record a flush landed replays, so the resubmissions
		// execute exactly what Close could not land: nothing after a
		// clean Close.
		fm := fresh.Metrics()
		if fm.Cache.Misses != lost {
			t.Fatalf("seed %d: resubmissions executed %d points, want the %d records the chaos daemon could not land (close error %v, cache %+v)",
				seed, fm.Cache.Misses, lost, closeErr, fm.Cache)
		}
		t.Logf("seed %d: resubmitted to a fresh daemon: close error %v, %d points executed", seed, closeErr, fm.Cache.Misses)
	})

	t.Run("full", func(t *testing.T) {
		// A miss on the pack layout reads no file, so read faults only
		// land where a load must page a pack in from disk: a healthy
		// daemon first seeds the cache with the storm's seed-1 campaigns,
		// one pack each. The first page-in of every seeded pack fails,
		// later ones fail 60% of the time, and ENOSPC hits 60% of cache
		// temp files, so loads and flushes both fail. A degrade threshold
		// of one error turns the guaranteed read faults into degraded
		// campaigns.
		var seedSpecs []CampaignSpec
		for i, sp := range specs {
			if covered[i] && sp.Seed == 1 {
				seedSpecs = append(seedSpecs, sp) // covered, so their points are in the union
			}
		}
		cacheDir, seeded := seedCache(t, seedSpecs...)
		spec := "eio-read:ops=1-1,match=.pack;eio-read:p=0.6,match=.pack;enospc:p=0.6,match=.tmp-"
		inj := chaos.NewInjector(seed, mustChaosSpec(t, spec))
		s, ts := newTestServer(t, Config{
			CacheDir:     cacheDir,
			Shards:       4,
			QueueDepth:   clients*perClient + 8,
			MaxInflight:  4,
			FS:           chaos.Flaky(chaos.OS(), inj),
			degradeAfter: 1,
		})
		views, specIdx := soakStorm(t, ts.URL, specs, clients, perClient)
		for i, v := range views {
			if v != want[specIdx[i]] {
				t.Fatalf("seed %d: submission %d (spec %d) drifted under full chaos:\n got %s\nwant %s",
					seed, i, specIdx[i], v, want[specIdx[i]])
			}
		}
		m := s.Metrics()
		// Every unseeded point executes at least once; every execution
		// beyond that must be accounted for by a failure path: cache I/O
		// errors, degraded-mode skips, or verification mismatches.
		// Anything else would mean a point executed twice — or a seeded
		// point recomputed — for no recorded reason.
		fresh := union - seeded
		slack := m.Cache.Errors + m.Cache.Skipped + m.Cache.Mismatches
		if m.Cache.Misses < fresh || m.Cache.Misses > fresh+slack {
			t.Fatalf("seed %d: full chaos executed %d points, want within [%d, %d] (cache %+v)",
				seed, m.Cache.Misses, fresh, fresh+slack, m.Cache)
		}
		if n := inj.InjectedKind(chaos.ReadErr); n == 0 {
			t.Fatalf("seed %d: no read fault reached the seeded packs", seed)
		}
		t.Logf("seed %d: full chaos: %d faults injected (%d on reads), misses %d (union %d, %d seeded), %d degraded campaigns",
			seed, inj.Injected(), inj.InjectedKind(chaos.ReadErr), m.Cache.Misses, union, seeded,
			m.Robustness.DegradedCampaigns)
		// The default seed is pinned in CI and must demonstrably reach
		// degradation.
		if seed == 1 && m.Robustness.DegradedCampaigns == 0 {
			t.Fatal("seed 1: no campaign degraded to no-cache mode")
		}
	})

	t.Run("dead-cache", func(t *testing.T) {
		// A cache whose every pack page-in and every write fails, seeded
		// with all of spec 2's points so each load must page a pack in:
		// whatever order the shards issue operations in, the first cache
		// operation fails, spends the one-error budget and degrades the
		// campaign, which still serves the exact baseline bytes.
		const budget = 1
		const shards = 4
		cacheDir, _ := seedCache(t, specs[2])
		inj := chaos.NewInjector(seed, mustChaosSpec(t, "eio-read:p=1,match=.pack;enospc:p=1,match=.tmp-"))
		s, ts := newTestServer(t, Config{
			CacheDir:     cacheDir,
			Shards:       shards,
			FS:           chaos.Flaky(chaos.OS(), inj),
			degradeAfter: budget,
		})
		code, body, cr := postSpec(t, ts.URL, specs[2])
		if code != http.StatusOK {
			t.Fatalf("seed %d: campaign on a dead cache: %d: %s", seed, code, body)
		}
		if v := comparableView(cr); v != want[2] {
			t.Fatalf("seed %d: dead-cache campaign drifted:\n got %s\nwant %s", seed, v, want[2])
		}
		if !cr.Degraded {
			t.Fatalf("seed %d: dead cache did not degrade the campaign (cache %+v)", seed, cr.Cache)
		}
		if n := s.Metrics().Robustness.DegradedCampaigns; n != 1 {
			t.Fatalf("seed %d: %d degraded campaigns, want 1", seed, n)
		}
		// Points resolve on the shards plus one participating goroutine
		// per experiment (runUntil), so at most shards+len(experiments)
		// points are past their cache check at once. When the budget
		// runs out, the others among them may still each fail one cache
		// operation; every later point skips the cache.
		inFlight := int64(shards + len(specs[2].Experiments))
		if maxErrs := budget + inFlight - 1; cr.Cache.Errors > maxErrs {
			t.Fatalf("seed %d: dead cache cost %d errors, want at most %d (budget %d + %d in flight)",
				seed, cr.Cache.Errors, maxErrs, budget, inFlight-1)
		}
		if inj.InjectedKind(chaos.ReadErr) == 0 {
			t.Fatalf("seed %d: no read fault reached the seeded packs", seed)
		}
		t.Logf("seed %d: dead cache: %d errors, %d skipped", seed, cr.Cache.Errors, cr.Cache.Skipped)
	})
}

// seedCache fills a fresh cache directory with the pack segments a
// healthy daemon flushes for specs (one campaign, and so one pack, per
// spec that computes anything), so a daemon opened on it later must page
// those packs in from disk to serve their points. It returns the
// directory and how many distinct points the seeding computed.
func seedCache(t *testing.T, specs ...CampaignSpec) (string, int64) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "cache")
	s, ts := newTestServer(t, Config{CacheDir: dir})
	for _, spec := range specs {
		if code, body, cr := postSpec(t, ts.URL, spec); code != http.StatusOK || cr.Errors != 0 {
			t.Fatalf("seeding the cache with %v: %d: %s", spec.Experiments, code, body)
		}
	}
	points := s.Metrics().Cache.Misses
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, points
}
