package runner

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/trace"
)

func okTable() []*trace.Table {
	tb := trace.NewTable("x", "v")
	tb.Add(1)
	return []*trace.Table{tb}
}

// TestDeadlineAbandonsSlowExperiment: an experiment that overruns the
// per-experiment deadline is reported as failed while its siblings
// complete.
func TestDeadlineAbandonsSlowExperiment(t *testing.T) {
	slow := core.Experiment{ID: "slow", Title: "t", Run: func(bench.Env) []*trace.Table {
		time.Sleep(5 * time.Second)
		return okTable()
	}}
	ok := core.Experiment{ID: "ok", Title: "t", Run: func(bench.Env) []*trace.Table { return okTable() }}
	res := Collect(Run(testEnv(t), []core.Experiment{slow, ok},
		Options{Workers: 2, Deadline: 50 * time.Millisecond}))
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "deadline") {
		t.Fatalf("slow experiment not deadlined: %v", res[0].Err)
	}
	if res[1].Err != nil {
		t.Fatalf("sibling damaged by deadline: %v", res[1].Err)
	}
}

// TestFaultCampaignDeterministicAcrossWorkers runs the faults family at
// 1 and 8 workers under a custom schedule and demands byte-identical
// renderings — the tentpole's determinism contract.
func TestFaultCampaignDeterministicAcrossWorkers(t *testing.T) {
	sched, err := fault.ParseSpec("loss:p=0.2;degrade:factor=0.8")
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(t)
	env.Faults = sched
	var exps []core.Experiment
	for _, id := range core.FaultFamily() {
		e, ok := core.ByID(id)
		if !ok {
			t.Fatalf("faults family lists unknown experiment %q", id)
		}
		exps = append(exps, e)
	}
	if len(exps) < 2 {
		t.Fatalf("faults family has %d experiments, want >= 2", len(exps))
	}
	render := func(workers int) string {
		var b strings.Builder
		for _, r := range Collect(Run(env, exps, Options{Workers: workers})) {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Exp.ID, r.Err)
			}
			b.WriteString(r.Rendered)
		}
		return b.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Fatalf("fault campaign differs across worker counts:\n-j1:\n%s\n-j8:\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "custom") {
		t.Fatalf("custom schedule did not reach the drivers:\n%s", serial)
	}
}

// TestFaultsReachMetrics: the runner surfaces the MPI layer's recovery
// counters through the per-experiment metrics.
func TestFaultsReachMetrics(t *testing.T) {
	sched, err := fault.ParseSpec("loss:p=0.3")
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(t)
	env.Faults = sched
	e, ok := core.ByID("faults-pingpong")
	if !ok {
		t.Fatal("faults-pingpong not registered")
	}
	res := Collect(Run(env, []core.Experiment{e}, Options{}))
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	ft := res[0].Metrics.Faults
	if !ft.Any() || ft.SendRetries == 0 || ft.MsgsLost == 0 {
		t.Fatalf("fault totals missing from metrics: %+v", ft)
	}
}
