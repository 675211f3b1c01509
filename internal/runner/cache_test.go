package runner

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/trace"
)

// sweepExp builds an experiment whose Run compiles n points and renders
// their decoded values in index order; perPoint, when non-nil, runs
// inside each point (e.g. a random jitter sleep).
func sweepExp(id string, n int, perPoint func(i int)) core.Experiment {
	return core.Experiment{ID: id, Title: id, Run: func(env bench.Env) []*trace.Table {
		pts := make([]bench.Point, n)
		for i := range pts {
			i := i
			pts[i] = bench.Point{
				Key: fmt.Sprintf("%s/cell=%d", id, i),
				Fn: func(bench.Env) any {
					if perPoint != nil {
						perPoint(i)
					}
					return struct{ V int }{i * i}
				},
			}
		}
		cells := bench.RunPointsAs[struct{ V int }](env, pts)
		tb := trace.NewTable(id, "i", "v")
		for i, c := range cells {
			tb.Add(i, c.V)
		}
		return []*trace.Table{tb}
	}}
}

// TestPointPoolMergeOrderProperty: many experiments race their points
// through the shared pool with randomized per-point delays, at several
// worker counts, and every rendered table must come back index-ordered
// and byte-identical to the serial run. This is the determinism property
// the whole sweep layer rests on: completion order must never leak.
func TestPointPoolMergeOrderProperty(t *testing.T) {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(7))
	jitter := func(int) {
		mu.Lock()
		d := time.Duration(rng.Intn(300)) * time.Microsecond
		mu.Unlock()
		time.Sleep(d)
	}
	exps := []core.Experiment{
		sweepExp("alpha", 17, jitter),
		sweepExp("beta", 5, jitter),
		sweepExp("gamma", 29, jitter),
		sweepExp("delta", 1, jitter),
	}
	want := Collect(Run(testEnv(t), exps, Options{Workers: 1}))
	for _, workers := range []int{2, 4, 13} {
		got := Collect(Run(testEnv(t), exps, Options{Workers: workers}))
		for i := range exps {
			if got[i].Err != nil {
				t.Fatalf("j=%d: %s failed: %v", workers, exps[i].ID, got[i].Err)
			}
			if got[i].Rendered != want[i].Rendered {
				t.Errorf("j=%d: %s differs from serial:\n%s", workers, exps[i].ID,
					trace.UnifiedDiff("serial", fmt.Sprintf("j%d", workers), want[i].Rendered, got[i].Rendered))
			}
		}
	}
}

// TestPointPanicFailsOwningExperiment: a panicking point must fail the
// experiment that owns it — not whichever worker happened to execute it
// — while sibling experiments complete. A panic is never stored, so a
// re-run on the same cache replays the siblings and retries the panic.
func TestPointPanicFailsOwningExperiment(t *testing.T) {
	boom := core.Experiment{ID: "boom", Title: "boom", Run: func(env bench.Env) []*trace.Table {
		bench.RunPointsAs[struct{}](env, []bench.Point{
			{Key: "boom/cell", Fn: func(bench.Env) any { panic("kaboom") }},
		})
		return okTable()
	}}
	exps := []core.Experiment{sweepExp("healthy", 8, nil), boom, sweepExp("also-healthy", 8, nil)}
	cache, err := OpenPointCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"cold", "re-run"} {
		res := Collect(Run(testEnv(t), exps, Options{Workers: 4, Cache: cache}))
		if res[0].Err != nil || res[2].Err != nil {
			t.Fatalf("%s: healthy experiments damaged: %v / %v", pass, res[0].Err, res[2].Err)
		}
		if res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "kaboom") {
			t.Fatalf("%s: panicking point did not fail its owner: %v", pass, res[1].Err)
		}
		if replayed := pass == "re-run"; res[0].Cached != replayed || res[2].Cached != replayed {
			t.Fatalf("%s: healthy siblings cached = %v/%v", pass, res[0].Cached, res[2].Cached)
		}
	}
}

// TestCampaignColdWarmByteIdentical: the same campaign rendered with no
// cache, a cold cache, and a warm cache must be byte-identical, with the
// cache stats reflecting each phase (cold: all misses; warm: all hits).
func TestCampaignColdWarmByteIdentical(t *testing.T) {
	exps := []core.Experiment{sweepExp("a", 6, nil), sweepExp("b", 11, nil)}
	plain := Collect(Run(testEnv(t), exps, Options{Workers: 2}))

	cache, err := OpenPointCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var cold, warm CacheStats
	coldRes := Collect(Run(testEnv(t), exps, Options{Workers: 2, Cache: cache, CacheStats: &cold}))
	warmRes := Collect(Run(testEnv(t), exps, Options{Workers: 2, Cache: cache, CacheStats: &warm}))

	for i := range exps {
		if coldRes[i].Rendered != plain[i].Rendered {
			t.Errorf("%s: cold cached differs from uncached:\n%s", exps[i].ID,
				trace.UnifiedDiff("plain", "cold", plain[i].Rendered, coldRes[i].Rendered))
		}
		if warmRes[i].Rendered != plain[i].Rendered {
			t.Errorf("%s: warm cached differs from uncached:\n%s", exps[i].ID,
				trace.UnifiedDiff("plain", "warm", plain[i].Rendered, warmRes[i].Rendered))
		}
	}
	if cold.Hits != 0 || cold.Misses != 17 {
		t.Fatalf("cold stats: %+v, want 17 misses, 0 hits", cold)
	}
	if warm.Misses != 0 || warm.Hits != 17 || warm.HitRate() != 1 {
		t.Fatalf("warm stats: %+v, want 17 hits, 0 misses", warm)
	}
	// Meter accounting must replay identically from cache.
	for i := range exps {
		if plain[i].Cached || coldRes[i].Cached || !warmRes[i].Cached {
			t.Fatalf("%s: cached flags plain/cold/warm = %v/%v/%v, want false/false/true",
				exps[i].ID, plain[i].Cached, coldRes[i].Cached, warmRes[i].Cached)
		}
		if warmRes[i].Metrics.SimSeconds != plain[i].Metrics.SimSeconds ||
			warmRes[i].Metrics.Worlds != plain[i].Metrics.Worlds {
			t.Fatalf("%s: cached metrics drifted: %+v vs %+v",
				exps[i].ID, warmRes[i].Metrics, plain[i].Metrics)
		}
	}
}

// TestCampaignMemoDedupsSharedPoints: two experiments requesting the
// same keys compute each cell once; the second request is a memo hit
// even with no persistent cache.
func TestCampaignMemoDedupsSharedPoints(t *testing.T) {
	twin1 := sweepExp("twin", 9, nil)
	twin2 := twin1
	twin2.ID = "twin2" // distinct experiment, same point keys
	var stats CacheStats
	res := Collect(Run(testEnv(t), []core.Experiment{twin1, twin2},
		Options{Workers: 2, CacheStats: &stats}))
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if stats.Misses != 9 || stats.MemoHits != 9 {
		t.Fatalf("stats %+v, want 9 misses + 9 memo hits", stats)
	}
}

// TestCachedFollowsTheRecordsOrigin: a result is cached exactly when
// every record it consumed was loaded from the point cache, including
// records shared through the memo; one executed point clears the flag.
func TestCachedFollowsTheRecordsOrigin(t *testing.T) {
	twin1 := sweepExp("twin", 5, nil)
	twin2 := twin1
	twin2.ID = "twin2"
	cache, err := OpenPointCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run := func(exps ...core.Experiment) []Result {
		res := Collect(Run(testEnv(t), exps, Options{Workers: 2, Cache: cache}))
		for _, r := range res {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		return res
	}
	for _, r := range run(twin1, twin2) {
		if r.Cached {
			t.Fatalf("%s cached on a cold cache", r.Exp.ID)
		}
	}
	for _, r := range run(twin1, twin2) {
		if !r.Cached {
			t.Fatalf("%s not cached on a full cache", r.Exp.ID)
		}
	}
	// Six cells of twin's sweep: five replay, the sixth executes.
	if res := run(sweepExp("twin", 6, nil)); res[0].Cached {
		t.Fatal("a result with an executed point is marked cached")
	}
}

func mustChaos(t *testing.T, spec string) *chaos.Schedule {
	t.Helper()
	s, err := chaos.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPoisonedCacheEntryDetected: an entry whose stored key does not
// match the requested one (misfiled or tampered) is never served — the
// point is recomputed and the mismatch counted. The tampering happens
// inside a flushed pack segment and the cache is reopened afterwards,
// so this also locks the cross-process warm path (scan → index → load).
func TestPoisonedCacheEntryDetected(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenPointCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(t)
	exps := []core.Experiment{sweepExp("p", 3, nil)}

	var cold CacheStats
	Collect(Run(env, exps, Options{Workers: 1, Cache: cache, CacheStats: &cold}))
	if cold.Misses != 3 {
		t.Fatalf("cold misses %d, want 3", cold.Misses)
	}
	if err := cache.Flush(); err != nil {
		t.Fatal(err)
	}

	// Poison one entry: rewrite its stored key inside the pack segment.
	fullKey := pointBaseKey(env) + "/p/cell=1"
	sum := keySum(fullKey)
	packs, err := os.ReadDir(filepath.Join(dir, "packs"))
	if err != nil {
		t.Fatal(err)
	}
	var packPath string
	for _, de := range packs {
		if strings.HasSuffix(de.Name(), ".pack") {
			packPath = filepath.Join(dir, "packs", de.Name())
		}
	}
	if packPath == "" {
		t.Fatal("flush produced no pack segment")
	}
	packBytes, err := os.ReadFile(packPath)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := parsePackEntries(packBytes)
	if err != nil {
		t.Fatal(err)
	}
	var rec bench.PointRecord
	if err := rec.DecodeBinary(entries[sum]); err != nil {
		t.Fatalf("cache entry not where the key maps it: %v", err)
	}
	rec.Key = "someone-elses-key"
	entries[sum] = rec.EncodeBinary()
	poisoned, refs := buildPack(entries)
	if err := os.WriteFile(packPath, poisoned, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(strings.TrimSuffix(packPath, ".pack")+".idx", encodeIdx(refs), 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenPointCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, mismatch, _ := reopened.Load(fullKey); ok || !mismatch {
		t.Fatalf("poisoned entry: ok=%v mismatch=%v, want miss+mismatch", ok, mismatch)
	}

	want := Collect(Run(env, exps, Options{Workers: 1}))
	var warm CacheStats
	got := Collect(Run(env, exps, Options{Workers: 1, Cache: reopened, CacheStats: &warm}))
	if got[0].Rendered != want[0].Rendered {
		t.Errorf("output corrupted by poisoned cache:\n%s",
			trace.UnifiedDiff("want", "got", want[0].Rendered, got[0].Rendered))
	}
	if warm.Mismatches != 1 || warm.Misses != 1 || warm.Hits != 2 {
		t.Fatalf("stats %+v, want 1 mismatch → 1 recompute, 2 hits", warm)
	}
}

// TestCacheSchemaDriftIsMiss: an entry recorded under a different
// PointSchema is ignored (plain miss), not an error.
func TestCacheSchemaDriftIsMiss(t *testing.T) {
	cache, err := OpenPointCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := bench.PointRecord{Schema: bench.PointSchema + 1, Payload: []byte(`{}`)}
	if err := cache.Store("k", rec); err != nil {
		t.Fatal(err)
	}
	if _, ok, mismatch, ioErr := cache.Load("k"); ok || mismatch || ioErr {
		t.Fatalf("schema drift: ok=%v mismatch=%v ioErr=%v, want plain miss", ok, mismatch, ioErr)
	}
}

// TestCacheCorruptEntryIsIOError: a pack entry whose bytes are not a
// binary record is reported as an I/O-level error and the point
// recomputed.
func TestCacheCorruptEntryIsIOError(t *testing.T) {
	dir := t.TempDir()
	pack, refs := buildPack(map[addr][]byte{keySum("k"): []byte("not a record")})
	seg := filepath.Join(dir, "packs", "seg-corrupt")
	if err := os.MkdirAll(filepath.Dir(seg), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg+".pack", pack, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg+".idx", encodeIdx(refs), 0o644); err != nil {
		t.Fatal(err)
	}
	cache, err := OpenPointCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _, ioErr := cache.Load("k"); ok || !ioErr {
		t.Fatalf("corrupt entry: ok=%v ioErr=%v, want miss+ioErr", ok, ioErr)
	}
}

// TestCacheColdMissReadsNothing: opening an empty directory creates only
// packs/, and a miss on it touches no file — so even a disk whose every
// read fails answers it as a clean miss, not an I/O error.
func TestCacheColdMissReadsNothing(t *testing.T) {
	dir := t.TempDir()
	inj := chaos.NewInjector(1, mustChaos(t, "eio-read:p=1"))
	cache, err := OpenPointCacheFS(dir, chaos.Flaky(chaos.OS(), inj))
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "packs" {
		var names []string
		for _, de := range ents {
			names = append(names, de.Name())
		}
		t.Fatalf("open created %v, want only packs/", names)
	}
	if _, ok, mismatch, ioErr := cache.Load("k"); ok || mismatch || ioErr {
		t.Fatalf("cold miss: ok=%v mismatch=%v ioErr=%v, want a clean miss", ok, mismatch, ioErr)
	}
	if n := inj.Injected(); n != 0 {
		t.Fatalf("cold miss attempted %d failing read(s), want none", n)
	}
}

// TestPointBaseKeySensitivity: every knob that changes point values must
// change the base key (else the cache would serve stale results), and
// equal configurations must agree on it.
func TestPointBaseKeySensitivity(t *testing.T) {
	base := testEnv(t)
	if pointBaseKey(base) != pointBaseKey(testEnv(t)) {
		t.Fatal("base key not stable across equal envs")
	}
	seen := map[string]string{pointBaseKey(base): "base"}
	mutations := map[string]bench.Env{}
	seedEnv := base
	seedEnv.Seed++
	mutations["seed"] = seedEnv
	runsEnv := base
	runsEnv.Runs++
	mutations["runs"] = runsEnv
	specEnv := base
	specEnv.Spec = base.Spec.Clone()
	specEnv.Spec.CoresPerNUMA++
	mutations["spec"] = specEnv
	for name, env := range mutations {
		k := pointBaseKey(env)
		if prev, dup := seen[k]; dup {
			t.Errorf("mutating %s collides with %s", name, prev)
		}
		seen[k] = name
	}
}
