package runner

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

// BenchmarkCampaignCounters runs the golden henri campaign (seed 1, 3
// runs, no point cache) and reports its deterministic counts: fluid
// solves, points requested, points executed and campaign-memo hits.
// They do not depend on the worker count or the host, so CI ratchets
// them against BENCH_sim.json where it cannot ratchet a wall.
func BenchmarkCampaignCounters(b *testing.B) {
	env, err := core.Env("henri", 1, 3)
	if err != nil {
		b.Fatal(err)
	}
	exps := core.Experiments()
	var stats CacheStats
	before := bench.Solves()
	for i := 0; i < b.N; i++ {
		stats = CacheStats{}
		for res := range Run(env, exps, Options{CacheStats: &stats}) {
			if res.Err != nil {
				b.Fatalf("%s: %v", res.Exp.ID, res.Err)
			}
		}
	}
	b.ReportMetric(float64(bench.Solves()-before)/float64(b.N), "solves/campaign")
	b.ReportMetric(float64(stats.Points()), "points/campaign")
	b.ReportMetric(float64(stats.Misses), "executed/campaign")
	b.ReportMetric(float64(stats.MemoHits), "memo_hits/campaign")
}
