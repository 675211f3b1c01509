package runner

import (
	"strconv"
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
// counters through the per-experiment metrics, for the faults family
// and for the drivers whose worlds come from elsewhere than a protocol
// step (tuning.WorkerSweep's, the collectives' n-node worlds). ext-sched
// is left out: its application sends no message, so loss cannot draw.
func TestFaultsReachMetrics(t *testing.T) {
	sched, err := fault.ParseSpec("loss:p=0.3")
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(t)
	env.Faults = sched
	var exps []core.Experiment
	for _, id := range []string{"faults-pingpong", "ext-tuner", "ext-throttle", "ext-collectives"} {
		e, ok := core.ByID(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		exps = append(exps, e)
	}
	for _, r := range Collect(Run(env, exps, Options{Workers: 2})) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Exp.ID, r.Err)
		}
		ft := r.Metrics.Faults
		if !ft.Any() || ft.SendRetries == 0 || ft.MsgsLost == 0 {
			t.Errorf("%s: fault totals missing from metrics: %+v", r.Exp.ID, ft)
		}
	}
}

// TestEveryExperimentHonoursFaults: a fault schedule reaches every world
// of every registered experiment, so no experiment renders the same
// bytes healthy and faulty (a driver that built a healthy world would
// fill caches with healthy numbers under the faulty key). The schedule
// degrades the wires and slows every core of node 1, which moves a
// result whether the experiment communicates or only computes. It holds
// no loss: beside the straggler, some ping-pongs would exhaust their
// retries. The faulty bytes must also differ from those under a
// schedule that injects nothing (a full-speed degrade), which the
// faults family labels the same way, so a driver that only relabels
// its rows under a schedule fails too.
func TestEveryExperimentHonoursFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("three full campaigns; skipped with -short")
	}
	env := testEnv(t)
	cores := make([]string, env.Spec.Cores())
	for i := range cores {
		cores[i] = strconv.Itoa(i)
	}
	exps := core.Experiments()
	render := func(spec string) []Result {
		env := env
		if spec != "" {
			sched, err := fault.ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			env.Faults = sched
		}
		res := Collect(Run(env, exps, Options{Workers: 2}))
		for _, r := range res {
			if r.Err != nil {
				t.Fatalf("%s under %q: %v", r.Exp.ID, spec, r.Err)
			}
		}
		return res
	}
	faultySpec := "degrade:factor=0.5;straggler:factor=2,node=1,cores=" + strings.Join(cores, "+")
	faulty := render(faultySpec)
	for _, base := range []string{"", "degrade:factor=1"} {
		for i, r := range render(base) {
			if r.Rendered == faulty[i].Rendered {
				t.Errorf("%s renders the same bytes under %q as under %q (empty: healthy)", r.Exp.ID, faultySpec, base)
			}
		}
	}
}
