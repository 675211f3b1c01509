package runner

import (
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

// BenchmarkCampaignCounters runs the golden henri campaign (seed 1, 3
// runs, no point cache) and reports its deterministic counts: fluid
// solves, fluid mutations that skipped their solve, fluid starts and
// removals that reused a recorded solve, kernel events, process resumes,
// points requested, points executed and campaign-memo hits, and the
// solves, events, reuses and resumes of each sweep family
// (solves/<family>, events/<family>, reuses/<family>, resumes/<family>;
// the family is the first segment of the point key), so that a change
// in the totals lands on a named family.
// They do not depend on the worker count or the host, so CI ratchets
// the totals against BENCH_sim.json where it cannot ratchet a wall.
func BenchmarkCampaignCounters(b *testing.B) {
	env, err := core.Env("henri", 1, 3)
	if err != nil {
		b.Fatal(err)
	}
	exps := core.Experiments()
	var stats CacheStats
	before := bench.DoneByFamily()
	for i := 0; i < b.N; i++ {
		stats = CacheStats{}
		for res := range Run(env, exps, Options{CacheStats: &stats}) {
			if res.Err != nil {
				b.Fatalf("%s: %v", res.Exp.ID, res.Err)
			}
		}
	}
	byFamily := bench.DoneByFamily().Sub(before)
	var work bench.Work
	for _, w := range byFamily {
		work = work.Add(w)
	}
	b.ReportMetric(float64(work.Solves)/float64(b.N), "solves/campaign")
	b.ReportMetric(float64(work.Skips)/float64(b.N), "skips/campaign")
	b.ReportMetric(float64(work.Reuses)/float64(b.N), "reuses/campaign")
	b.ReportMetric(float64(work.Events)/float64(b.N), "events/campaign")
	b.ReportMetric(float64(work.Resumes)/float64(b.N), "resumes/campaign")
	b.ReportMetric(float64(stats.Points()), "points/campaign")
	b.ReportMetric(float64(stats.Misses), "executed/campaign")
	b.ReportMetric(float64(stats.MemoHits), "memo_hits/campaign")
	fams := make([]string, 0, len(byFamily))
	for fam := range byFamily {
		fams = append(fams, fam)
	}
	slices.Sort(fams)
	for _, fam := range fams {
		b.ReportMetric(float64(byFamily[fam].Solves)/float64(b.N), "solves/"+fam)
		b.ReportMetric(float64(byFamily[fam].Events)/float64(b.N), "events/"+fam)
		b.ReportMetric(float64(byFamily[fam].Reuses)/float64(b.N), "reuses/"+fam)
		b.ReportMetric(float64(byFamily[fam].Resumes)/float64(b.N), "resumes/"+fam)
	}
}

// BenchmarkWarmReplay replays the golden henri campaign (seed 1, 3 runs)
// from a point cache filled in set-up. Each op opens the cache, runs
// every experiment and flushes, as a repeated `make verify` does; no
// point executes, so the op is cache load, record and payload decode,
// rendering and scheduling.
func BenchmarkWarmReplay(b *testing.B) {
	env, err := core.Env("henri", 1, 3)
	if err != nil {
		b.Fatal(err)
	}
	exps := core.Experiments()
	dir := b.TempDir()
	campaign := func() CacheStats {
		cache, err := OpenPointCache(dir)
		if err != nil {
			b.Fatal(err)
		}
		var stats CacheStats
		for res := range Run(env, exps, Options{Cache: cache, CacheStats: &stats}) {
			if res.Err != nil {
				b.Fatalf("%s: %v", res.Exp.ID, res.Err)
			}
		}
		if err := cache.Flush(); err != nil {
			b.Fatal(err)
		}
		return stats
	}
	campaign()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if stats := campaign(); stats.Misses != 0 {
			b.Fatalf("warm replay executed %d points", stats.Misses)
		}
	}
}
