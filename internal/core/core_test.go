package core

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"ablation", "ext-collectives", "ext-energy", "ext-overlap", "ext-sched", "ext-throttle", "ext-tuner",
		"fabric-dfly", "fabric-interference", "fabric-pingpong",
		"faults-crash-cg", "faults-crash-pingpong", "faults-overlap", "faults-pingpong",
		"fig1", "fig10", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "sec5.2", "tab1"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("%d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Fatalf("experiment[%d] = %q, want %q", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %q incomplete", e.ID)
		}
	}
}

func TestFaultFamily(t *testing.T) {
	got := FaultFamily()
	want := []string{"faults-crash-cg", "faults-crash-pingpong", "faults-overlap", "faults-pingpong"}
	if len(got) != len(want) {
		t.Fatalf("FaultFamily() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FaultFamily() = %v, want %v", got, want)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig4"); !ok {
		t.Fatal("fig4 missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("bogus ID found")
	}
}

func TestEnvPresets(t *testing.T) {
	for _, name := range []string{"henri", "bora", "billy", "pyxis"} {
		env, err := Env(name, 1, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if env.Spec.Name != name || env.Runs != 2 {
			t.Fatalf("%s: env %+v", name, env)
		}
	}
	if _, err := Env("atlantis", 1, 1); err == nil {
		t.Fatal("unknown cluster accepted")
	}
}

// fastEnv: tiny noise-free environment for smoke-running experiments.
func fastEnv() bench.Env {
	spec := topology.Henri()
	spec.NIC.NoiseFrac = 0
	return bench.Env{Spec: spec, Seed: 1, Runs: 1}
}

func TestExperimentsSmokeAndFormats(t *testing.T) {
	// Run the cheap experiments end to end and render both formats.
	for _, id := range []string{"fig3", "fig8", "sec5.2"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		tables := e.Run(fastEnv())
		if len(tables) == 0 {
			t.Fatalf("%s produced no tables", id)
		}
		var ascii, csv strings.Builder
		if err := WriteTables(&ascii, "ascii", tables); err != nil {
			t.Fatalf("%s ascii: %v", id, err)
		}
		if err := WriteTables(&csv, "csv", tables); err != nil {
			t.Fatalf("%s csv: %v", id, err)
		}
		if !strings.Contains(csv.String(), ",") || ascii.Len() == 0 {
			t.Fatalf("%s rendered empty output", id)
		}
	}
}

// recordingRunner executes points inline, like a nil scheduler, and
// counts the points it ran.
type recordingRunner struct{ points int }

func (r *recordingRunner) RunPoints(env bench.Env, pts []bench.Point) []bench.PointRecord {
	recs := make([]bench.PointRecord, len(pts))
	for i, p := range pts {
		recs[i] = bench.ExecutePoint(env, p)
		r.points++
	}
	return recs
}

// TestEveryExperimentIsASweep: every registered experiment describes
// its sweep and compiles into points, and builds no world outside one
// (with a scheduler installed, such a world panics), so the point cache
// can replay every experiment.
func TestEveryExperimentIsASweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry; skipped with -short")
	}
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			if e.Sweep == "" {
				t.Error("no Sweep description")
			}
			env, err := Env("henri", 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			rr := &recordingRunner{}
			env.Sched = rr
			e.Run(env)
			if rr.points == 0 {
				t.Fatal("compiled no points")
			}
		})
	}
}

func TestDefaultCoreSweepShape(t *testing.T) {
	envH := fastEnv()
	sweep := defaultCoreSweep(envH)
	if sweep[0] != 1 || sweep[len(sweep)-1] != 35 {
		t.Fatalf("henri sweep %v", sweep)
	}
	envB, _ := Env("billy", 1, 1)
	sweepB := defaultCoreSweep(envB)
	if sweepB[len(sweepB)-1] != 63 {
		t.Fatalf("billy sweep ends at %d", sweepB[len(sweepB)-1])
	}
	if len(sweepB) >= 63 {
		t.Fatalf("billy sweep not thinned: %d points", len(sweepB))
	}
}

func TestCondense(t *testing.T) {
	in := []freqSample{
		{0, 0, 1.0}, {0, 1, 1.0},
		{sim.Time(10), 0, 1.0}, // unchanged → dropped
		{sim.Time(20), 0, 2.5}, // transition → kept
		{sim.Time(30), 1, 1.0}, // unchanged → dropped
	}
	out := condense(in)
	if len(out) != 3 {
		t.Fatalf("condensed to %d samples, want 3: %v", len(out), out)
	}
}
