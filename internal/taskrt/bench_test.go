package taskrt

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// BenchmarkWorkerHerd pushes tasks one at a time onto a henri runtime
// whose 34 workers poll an empty central list: every push wakes the
// idle herd, one worker wins the task and the others lose the race and
// poll again (§5.4). It reports the process resumes and fluid solves per
// push, which are deterministic counts; CI ratchets resumes/push.
func BenchmarkWorkerHerd(b *testing.B) {
	c := machine.NewCluster(noNoise(), 1, 1)
	rt := New(Config{Node: c.Nodes[0], MainCore: 0, CommCore: 35})
	rt.Start()
	spec := machine.ComputeSpec{Flops: 1e6, Class: topology.Scalar}
	var resumes, solves uint64
	c.K.Spawn("main", func(p *sim.Proc) {
		// One push first, so every worker has gone idle once.
		warm := NewTask(spec)
		rt.Submit(p, warm)
		rt.WaitTask(p, warm)
		r0, s0 := c.K.Resumes(), c.Fluid.Solves()
		for i := 0; i < b.N; i++ {
			t := NewTask(spec)
			rt.Submit(p, t)
			rt.WaitTask(p, t)
		}
		resumes, solves = c.K.Resumes()-r0, c.Fluid.Solves()-s0
		rt.Shutdown()
	})
	b.ReportAllocs()
	b.ResetTimer()
	c.K.Run()
	b.StopTimer()
	if c.K.LiveProcs() != 0 {
		b.Fatalf("%d processes left after shutdown", c.K.LiveProcs())
	}
	b.ReportMetric(float64(resumes)/float64(b.N), "resumes/push")
	b.ReportMetric(float64(solves)/float64(b.N), "solves/push")
}
