package bench_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
)

// TestRepeatedCampaignHoldsGoroutines runs the same campaign three times
// and requires the goroutine count to stop growing after the second:
// every world a campaign builds either parks in the arena (bounded, and
// reused by the next campaign) or has its kernel shut down. The
// experiments cover each release path: healthy worlds parked after
// traces, probes and runtime ping-pongs (fig2, sec5.2), crash worlds
// whose dead node leaves processes blocked for good, and fault and
// fabric worlds. Sweeps over many core counts (fig4) are
// left out: a parked world keeps as many processes as the largest point
// that used it, so the arena's goroutines take a few campaigns to reach
// their (arenaCap-bounded) high-water mark. One worker keeps the
// arena's occupancy deterministic from one campaign to the next.
func TestRepeatedCampaignHoldsGoroutines(t *testing.T) {
	env, err := core.Env("henri", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var exps []core.Experiment
	for _, id := range []string{"fig2", "sec5.2", "faults-crash-pingpong", "faults-crash-cg",
		"faults-pingpong", "fabric-pingpong"} {
		e, ok := core.ByID(id)
		if !ok {
			t.Fatalf("no experiment %q", id)
		}
		exps = append(exps, e)
	}
	campaign := func() int {
		for _, r := range runner.Collect(runner.Run(env, exps, runner.Options{Workers: 1})) {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Exp.ID, r.Err)
			}
		}
		return runtime.NumGoroutine()
	}
	first := campaign()
	second := campaign()
	third := campaign()
	// A finished campaign's goroutines may still be on their way out; a
	// leak is still there a second later.
	for deadline := time.Now().Add(time.Second); third > second && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		third = runtime.NumGoroutine()
	}
	t.Logf("goroutines after each campaign: %d, %d, %d", first, second, third)
	if third > second {
		t.Fatalf("goroutines grew from %d to %d between the 2nd and 3rd campaign", second, third)
	}
}
