package bench

import (
	"bytes"
	"testing"

	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// allCompAloneRuns runs f with compAlone forced to execute every run.
func allCompAloneRuns(f func()) {
	saved := compAloneOnce
	defer func() { compAloneOnce = saved }()
	compAloneOnce = false
	f()
}

// TestCompAloneRunsOnce: a healthy comp-alone step builds one world and
// repeats its samples for the other runs, and the cell it belongs to
// must carry the payload of the path that executes every run. Under a
// fault schedule every run executes.
func TestCompAloneRunsOnce(t *testing.T) {
	env := DefaultEnv()
	env.Runs = 3
	contention, _ := contentionSweep(env.Spec, ContentionConfig{Data: Near, CommThread: Far, CoreCounts: []int{4}})
	lat, bw := placedPingPongs(env.Spec, Near, Far)
	fig7 := Point{Key: "fig7/elems=1048576/cores=4/cursor=8", Fn: func(env Env) any {
		return cellResults(env, ComputeConfig{Slice: kernels.TriadX(1<<20, 8, env.Spec.NIC.NUMA), Cores: 4}, lat, bw)
	}}
	straggler, err := fault.ParseSpec("straggler:factor=2,node=0,cores=0+1")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Point{contention[0], fig7} {
		for _, faults := range []*fault.Schedule{nil, straggler} {
			env.Faults = faults
			got := ExecutePoint(env, p)
			var want PointRecord
			allCompAloneRuns(func() { want = ExecutePoint(env, p) })
			if got.Panic != nil || want.Panic != nil {
				t.Fatalf("%s: panics %v, %v", p.Key, got.Panic, want.Panic)
			}
			if !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("%s faults %v: payload differs from the all-runs path", p.Key, faults)
			}
			// Two ping-pongs beside the computation build 2×Runs worlds,
			// and the comp-alone step one, or Runs under faults.
			saved := 0
			if faults == nil {
				saved = env.Runs - 1
			}
			if want.Worlds != 3*env.Runs || got.Worlds != want.Worlds-saved {
				t.Fatalf("%s faults %v: %d worlds, all-runs path %d; want %d and %d",
					p.Key, faults, got.Worlds, want.Worlds, 3*env.Runs-saved, 3*env.Runs)
			}
		}
	}
}

// TestSeedFreeNeedsNoDraw: a run that drew from its kernel's random
// source read its seed, so it cannot stand in for the runs at other
// seeds; nor can a run under a fault schedule.
func TestSeedFreeNeedsNoDraw(t *testing.T) {
	env := DefaultEnv()
	if k := sim.NewKernel(1); !seedFree(env, k) {
		t.Fatal("a kernel that never drew is not seed-free")
	}
	c, _ := newWorld(env, 1)
	c.K.Spawn("jitter", func(p *sim.Proc) { p.Sleep(c.Nodes[0].Jitter(sim.Microsecond, 0.1)) })
	c.K.Run()
	if seedFree(env, c.K) {
		t.Fatal("a run that drew from its seed counts as seed-free")
	}
	var err error
	if env.Faults, err = fault.ParseSpec("straggler:factor=2,node=0,cores=0+1"); err != nil {
		t.Fatal(err)
	}
	if seedFree(env, sim.NewKernel(1)) {
		t.Fatal("a run under a fault schedule counts as seed-free")
	}
}
